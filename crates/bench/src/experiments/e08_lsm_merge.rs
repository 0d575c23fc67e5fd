//! E8 — LSM merge policies (paper §III item 5; §V-B delete handling).
//!
//! The classic LSM trade-off the storage layer must navigate: merging less
//! (NoMerge) keeps write amplification at 1 but lets the component count —
//! and with it read cost — grow; merging more (Constant) bounds reads at
//! higher write amplification; Prefix sits between. We ingest an
//! update-heavy stream and measure all three.

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
    let n: i64 = if quick { 20_000 } else { 100_000 };
    let lookups = if quick { 1_000 } else { 4_000 };
    let mut report = ExpReport::new(
        "E8",
        format!("LSM merge policies ({n} update-heavy upserts + deletes)"),
        &[
            "policy",
            "components",
            "write_amp",
            "ingest_ms",
            "lookup_reads_per_op",
            "scan_ms",
        ],
    );
    let policies: Vec<(&str, MergePolicy)> = vec![
        ("NoMerge", MergePolicy::NoMerge),
        ("Constant(4)", MergePolicy::Constant { max_components: 4 }),
        (
            "Prefix(1MiB,3)",
            MergePolicy::Prefix { max_mergable_bytes: 1 << 20, max_tolerance_components: 3 },
        ),
    ];
    let key = |i: i64| encode_key(&[Value::Int(i)]);
    for (name, policy) in policies {
        let root = crate::experiments::exp_dir("e08");
        let fm = FileManager::new(&root, IoStats::new()).unwrap();
        let cache = BufferCache::new(Arc::clone(&fm), 128);
        let mut tree = LsmTree::new(
            Arc::clone(&cache),
            LsmConfig {
                name: "t".into(),
                mem_budget: 128 << 10, // small: many flushes
                merge_policy: policy,
                bloom: true,
                leaves: LeafShape::Rows,
            },
        );
        let mut gen = DataGen::new(8008);
        let (_, t_ingest) = time_it(|| {
            for _ in 0..n {
                // update-heavy: keys revisit a hot range; occasional deletes
                let k = gen.int(0, n / 4);
                if gen.chance(0.1) {
                    tree.delete(key(k)).unwrap();
                } else {
                    tree.upsert(key(k), vec![b'v'; 64]).unwrap();
                }
            }
            tree.flush().unwrap();
        });
        let stats = tree.stats();
        // point lookups, cold cache
        let before = fm.stats().physical_reads();
        let mut found = 0usize;
        let (_, _t_lookup) = time_it(|| {
            for _ in 0..lookups {
                if tree.get(&key(gen.int(0, n / 4))).unwrap().is_some() {
                    found += 1;
                }
            }
        });
        let reads_per_op = (fm.stats().physical_reads() - before) as f64 / lookups as f64;
        let (live, t_scan) = time_it(|| tree.scan().unwrap().len());
        report.row(&[
            name.into(),
            tree.component_count().to_string(),
            format!("{:.2}", stats.write_amplification()),
            ms(t_ingest),
            format!("{reads_per_op:.2}"),
            ms(t_scan),
        ]);
        assert!(found > 0 && live > 0);
        let _ = std::fs::remove_dir_all(root);
    }
    report.note(
        "shape: NoMerge has write-amp ≈ 1 but the most components (highest read \
         cost); Constant bounds components at the highest write-amp; Prefix lands \
         between — the standard LSM read/write trade-off the paper's storage layer \
         exposes as pluggable policies",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e08_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 3);
        let comp_nomerge: usize = r.rows[0][1].parse().unwrap();
        let comp_constant: usize = r.rows[1][1].parse().unwrap();
        assert!(comp_nomerge > comp_constant, "NoMerge accumulates components");
        let wa_nomerge: f64 = r.rows[0][2].parse().unwrap();
        let wa_constant: f64 = r.rows[1][2].parse().unwrap();
        assert!(wa_constant > wa_nomerge, "merging costs write amplification");
    }
}
