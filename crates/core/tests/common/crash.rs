//! What the crash batteries share: a scratch directory, and the sweep over
//! named crash points. A battery includes it with `#[path]`, apart from
//! `common/mod.rs`, so that no other target compiles it unused.

use asterix_storage::faults::FaultInjector;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Self-cleaning scratch directory (integration tests cannot use the
/// crate-private test helpers).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asterix-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
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

/// Crashes `run` at occurrence 0, 1, … of each of `points` (an I/O target
/// naming text, see `FaultInjector::crash_at`) until one does not fire, and
/// `check`s what each crashed run left; each point must fire at least
/// `min_fired` times, so that no point is swept vacuously.
pub fn sweep<O>(
    seed: u64,
    points: &[&str],
    min_fired: usize,
    mut run: impl FnMut(&Path, &Arc<FaultInjector>) -> O,
    mut check: impl FnMut(&Path, O) -> Result<(), String>,
) {
    for point in points {
        let mut fired = 0;
        for nth in 0.. {
            let dir = TempDir::new("sweep");
            let injector = FaultInjector::crash_at(seed, point, nth);
            let out = run(dir.path(), &injector);
            if !injector.crashed() {
                break;
            }
            fired += 1;
            if let Err(why) = check(dir.path(), out) {
                panic!("{point} #{nth}: {why}\n events: {:?}", injector.events());
            }
        }
        assert!(
            fired >= min_fired,
            "{point} fires {fired} times, want {min_fired}"
        );
    }
}
