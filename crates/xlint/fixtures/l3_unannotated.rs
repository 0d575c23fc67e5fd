// Fixture: nested acquisition with no annotations — flagged as such.
use asterix_storage::lock_order::RwLock;

pub fn nested(a: &RwLock<u32>, b: &RwLock<u32>) -> u32 {
    let x = a.read();
    let y = b.read();
    *x + *y
}
