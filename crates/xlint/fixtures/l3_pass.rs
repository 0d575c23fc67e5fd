// Fixture: annotated nested acquisition in declared order
// (catalog rank 1 before wal rank 6).
use asterix_storage::lock_order::{Mutex, RwLock};

pub fn ordered(cat: &RwLock<u32>, wal: &Mutex<u32>) -> u32 {
    let c = cat.read(); // xlint: lock(catalog)
    let w = wal.lock(); // xlint: lock(wal)
    *c + *w
}
