//! E3 — Goetz Graefe's B-trees-versus-hashing argument (§V-C).
//!
//! The paper's retelling: (1) "it is well-known how to efficiently load a
//! B+ tree; it is *not* known how to do the same for Linear Hashing", and
//! (2) "given a modest allocation of memory, their I/O costs in practice
//! will be the same" — so the O(1)-vs-O(log N) argument for adding hashing
//! to a real system evaporates. We measure build cost, lookup I/O under a
//! modest buffer cache, and range-scan capability.

use crate::{ms, time_it, ExpReport};
use asterix_adm::binary::encode_key;
use asterix_adm::Value;
use asterix_core::datagen::DataGen;
use asterix_storage::btree::{BTreeBuilder, DiskBTree};
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::linear_hash::LinearHash;
use asterix_storage::stats::IoStats;
use std::ops::Bound;
use std::sync::Arc;

pub fn run(quick: bool) -> ExpReport {
    let n: i64 = if quick { 30_000 } else { 200_000 };
    let lookups = if quick { 2_000 } else { 10_000 };
    let cache_pages = 128; // "a modest allocation of memory": 1 MiB
    let mut report = ExpReport::new(
        "E3",
        format!("B+ tree vs linear hashing, §V-C ({n} keys, {cache_pages}-page cache)"),
        &["structure", "build_ms", "build_page_writes", "reads_per_lookup", "range_scan_1k_ms"],
    );
    let root = crate::experiments::exp_dir("e03");
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let cache = BufferCache::new(Arc::clone(&fm), cache_pages);
    let key = |i: i64| encode_key(&[Value::Int(i)]);
    let value = vec![b'v'; 64];

    // --- B+ tree: sorted bulk load (the "well-known efficient load") ---
    let (btree, t_build_bt) = time_it(|| {
        let w = fm.bulk_writer("e3.btree").unwrap();
        let mut b = BTreeBuilder::new(w, true);
        for i in 0..n {
            b.add(&key(i), Some(&value)).unwrap();
        }
        DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap())
    });
    let bt_writes = fm.stats().physical_writes();

    // --- linear hashing: incremental build (no bulk load exists) ---
    let (hash, t_build_h) = time_it(|| {
        let mut h = LinearHash::create(Arc::clone(&cache), "e3.lh", 64, 40).unwrap();
        let mut gen = DataGen::new(3003);
        // insert in random order, as a real workload would
        let mut order: Vec<i64> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, gen.int(0, i as i64 + 1) as usize);
        }
        for i in order {
            h.put(&key(i), &value).unwrap();
        }
        h.flush().unwrap();
        h
    });
    let h_writes = fm.stats().physical_writes() - bt_writes;

    // --- point lookups under the modest cache ---
    let mut gen = DataGen::new(3004);
    let probes: Vec<i64> = (0..lookups).map(|_| gen.int(0, n)).collect();
    let reads_before = fm.stats().physical_reads();
    for p in &probes {
        assert!(btree.get(&key(*p)).unwrap().is_some());
    }
    let reads_between = fm.stats().physical_reads();
    for p in &probes {
        assert!(hash.get(&key(*p)).unwrap().is_some());
    }
    let bt_reads = (reads_between - reads_before) as f64 / lookups as f64;
    let h_reads = (fm.stats().physical_reads() - reads_between) as f64 / lookups as f64;

    // --- range scan: only the B+ tree can ---
    let lo = key(n / 2);
    let hi = key(n / 2 + 999);
    let (count, t_range) = time_it(|| {
        btree
            .range(Bound::Included(lo.as_slice()), Bound::Included(hi.clone()))
            .unwrap()
            .count()
    });
    assert_eq!(count, 1_000);

    report.row(&[
        "B+ tree (bulk load)".into(),
        ms(t_build_bt),
        bt_writes.to_string(),
        format!("{bt_reads:.2}"),
        ms(t_range),
    ]);
    report.row(&[
        "linear hashing".into(),
        ms(t_build_h),
        h_writes.to_string(),
        format!("{h_reads:.2}"),
        "unsupported".into(),
    ]);
    report.note(format!(
        "build: B+ tree bulk load is {:.1}x cheaper in time and {:.1}x in page writes \
         (Graefe's point 1)",
        t_build_h.as_secs_f64() / t_build_bt.as_secs_f64().max(1e-9),
        h_writes as f64 / bt_writes.max(1) as f64
    ));
    report.note(format!(
        "lookups: {bt_reads:.2} vs {h_reads:.2} physical reads/lookup — 'their I/O costs \
         in practice will be the same' (Graefe's point 2)"
    ));
    report.note("only the B+ tree answers range queries — the tiebreaker for real systems");
    let _ = std::fs::remove_dir_all(root);
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e03_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 2);
        // parity claim: reads/lookup within 2.5x of each other
        let bt: f64 = r.rows[0][3].parse().unwrap();
        let h: f64 = r.rows[1][3].parse().unwrap();
        assert!(bt / h < 2.5 && h / bt < 2.5, "bt={bt} h={h}");
    }
}
