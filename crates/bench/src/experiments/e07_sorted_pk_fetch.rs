//! E7 — sorting object references before fetching (paper §V-B, ref \[26\]).
//!
//! "Although AsterixDB employs the usual tricks to speed up indexed data
//! access (e.g., sorting object references, which in our case are primary
//! keys, before fetching data objects)". A secondary-index probe yields
//! candidate PKs in secondary-key order; fetching in that order is random
//! I/O against the primary index, while sorting the PKs first turns the
//! fetch into near-sequential leaf access. We count physical page reads
//! under a modest buffer cache.

use crate::{ms, time_it, ExpReport};
use asterix_adm::binary::encode_key;
use asterix_adm::Value;
use asterix_core::datagen::DataGen;
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::btree::LeafShape;
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_storage::stats::IoStats;
use std::sync::Arc;

pub fn run(quick: bool) -> ExpReport {
    let n: i64 = if quick { 30_000 } else { 120_000 };
    let mut report = ExpReport::new(
        "E7",
        format!("sorted-PK fetch, §V-B ref [26] ({n} records, 256-page cache)"),
        &["candidates", "order", "physical_reads", "reads_per_record", "fetch_ms"],
    );
    let root = crate::experiments::exp_dir("e07");
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let cache = BufferCache::new(Arc::clone(&fm), 256); // 2 MiB
    let mut primary = LsmTree::new(
        Arc::clone(&cache),
        LsmConfig {
            name: "primary".into(),
            mem_budget: 2 << 20,
            merge_policy: MergePolicy::Constant { max_components: 2 },
            bloom: true,
            leaves: LeafShape::Rows,
        },
    );
    let key = |i: i64| encode_key(&[Value::Int(i)]);
    for i in 0..n {
        primary
            .upsert(key(i), format!("record-{i}-{}", "x".repeat(150)).into_bytes())
            .unwrap();
    }
    primary.flush().unwrap();
    // merge everything so the fetch hits one big component (steady state)
    let c = primary.component_count();
    primary.merge_newest(c).unwrap();

    let mut gen = DataGen::new(7007);
    for k in [500usize, 2_000, 8_000] {
        let k = if quick { k / 2 } else { k };
        let candidates: Vec<Vec<u8>> = (0..k).map(|_| key(gen.int(0, n))).collect();
        for sorted in [false, true] {
            let mut pks = candidates.clone();
            if sorted {
                pks.sort_unstable();
            }
            // cold-ish start per run: drop cache contents by touching a
            // disjoint key range (cache is small, so this evicts)
            for i in 0..300 {
                let _ = primary.get(&key(n - 1 - i)).unwrap();
            }
            let before = fm.stats().physical_reads();
            let (_, t) = time_it(|| {
                for pk in &pks {
                    assert!(primary.get(pk).unwrap().is_some());
                }
            });
            let reads = fm.stats().physical_reads() - before;
            report.row(&[
                k.to_string(),
                if sorted { "sorted PKs" } else { "index order (random)" }.into(),
                reads.to_string(),
                format!("{:.3}", reads as f64 / k as f64),
                ms(t),
            ]);
        }
    }
    report.note(
        "shape: sorted fetch does a fraction of the physical reads of random-order \
         fetch once the candidate set exceeds the cache — the 'usual trick' pays \
         for itself, which is also why index-time differences wash out end-to-end (E2)",
    );
    let _ = std::fs::remove_dir_all(root);
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e07_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 6);
        // at the largest candidate count, sorted must beat random on reads
        let random: f64 = r.rows[4][2].parse().unwrap();
        let sorted: f64 = r.rows[5][2].parse().unwrap();
        assert!(sorted < random, "sorted {sorted} vs random {random}");
    }
}
