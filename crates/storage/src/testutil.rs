//! Test-only helpers shared across the crate's unit tests.

use std::path::{Path, PathBuf};
use asterix_obs::IdGen;

static COUNTER: IdGen = IdGen::new(0);

/// Minimal temporary-directory guard: unique path, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new() -> Self {
        let n = COUNTER.next();
        let pid = std::process::id();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let p = std::env::temp_dir().join(format!("asterix-storage-test-{pid}-{n}-{nanos}"));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `len` characters of printable ASCII drawn by a hash of `seed`: text no
/// symbol table makes much shorter, for tests about sizes and pages.
pub fn noise(seed: u64, len: usize) -> String {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            char::from(b' ' + (x % 95) as u8)
        })
        .collect()
}
