//! What several test targets share.

use asterix_core::Instance;
use asterix_obs::MetricValue;
use std::time::{Duration, Instant};

/// A counter or gauge summed over every node.
pub fn over_nodes(db: &Instance, suffix: &str) -> i128 {
    let snap = db.metrics_snapshot();
    let of_nodes = |name: &str| name.starts_with("node") && name.ends_with(suffix);
    let values = snap.values.iter().filter(|(name, _)| of_nodes(name));
    values
        .map(|(_, value)| match value {
            MetricValue::Counter(n) => i128::from(*n),
            MetricValue::Gauge(n) => i128::from(*n),
        })
        .sum()
}

/// Waits until no merge is in flight on any node; fails if one still is
/// after 30 s, so that a wedged merge fails the test instead of hanging it.
pub fn settle(db: &Instance) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while over_nodes(db, ".storage.lsm.merge_inflight") != 0 {
        assert!(Instant::now() < deadline, "merges in flight after 30 s");
        std::thread::sleep(Duration::from_millis(1));
    }
}
