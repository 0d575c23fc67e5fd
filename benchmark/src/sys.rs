//! What the harness reads from outside the engine: `/proc` and the data
//! directory.

use std::path::Path;

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family system calls so far.
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn walk(dir: &Path, visit: &mut dyn FnMut(&Path, u64)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.metadata() {
            Ok(m) if m.is_dir() => walk(&path, visit),
            Ok(m) => visit(&path, m.len()),
            Err(_) => {}
        }
    }
}

/// What a data directory holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    pub bytes: u64,
    pub wal_bytes: u64,
    /// LSM component files present.
    pub components_live: u64,
    /// Components ever created (flushes + merges): component ids count up
    /// from 1 per index, and the newest component of an index is always
    /// live, so this is the sum over indexes of the highest id present.
    pub components_created: u64,
}

pub fn dir_stats(dir: &Path) -> DirStats {
    let mut stats = DirStats::default();
    let mut newest = std::collections::BTreeMap::<String, u64>::new();
    walk(dir, &mut |path, len| {
        stats.bytes += len;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.ends_with(".wal") {
            stats.wal_bytes += len;
        }
        // `<index>_c<id>.btree`, one directory per node
        if let Some((index, id)) = name
            .strip_suffix(".btree")
            .and_then(|n| n.rsplit_once("_c"))
        {
            if let Ok(id) = id.parse::<u64>() {
                stats.components_live += 1;
                let key = format!(
                    "{}/{index}",
                    path.parent()
                        .map_or_else(String::new, |p| p.display().to_string())
                );
                let top = newest.entry(key).or_insert(0);
                *top = (*top).max(id);
            }
        }
    });
    stats.components_created = newest.values().sum();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_stats_counts_bytes_wal_and_components() {
        let dir =
            std::env::temp_dir().join(format!("asterix-benchmark-sys-{}", std::process::id()));
        let node = dir.join("node0");
        std::fs::create_dir_all(&node).expect("temp dir");
        std::fs::write(node.join("node.wal"), [0u8; 100]).expect("write");
        std::fs::write(node.join("ds_p0_primary_c3.btree"), [0u8; 30]).expect("write");
        std::fs::write(node.join("ds_p0_primary_c7.btree"), [0u8; 20]).expect("write");
        std::fs::write(node.join("ds_p0_idx_c2.btree"), [0u8; 5]).expect("write");
        std::fs::write(dir.join("catalog.ddl"), [0u8; 1]).expect("write");
        let stats = dir_stats(&dir);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(
            stats,
            DirStats {
                bytes: 156,
                wal_bytes: 100,
                components_live: 3,
                components_created: 9
            }
        );
    }

    #[test]
    fn proc_counters_are_readable_here() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
