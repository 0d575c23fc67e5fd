//! E13 — ablations of design choices DESIGN.md calls out.
//!
//! Three switches the stack exposes, each isolating one design decision:
//!
//! 1. **local/global aggregation splitting** (Algebricks jobgen): with it,
//!    partitions pre-aggregate before the hash exchange; without it, raw
//!    tuples cross the exchange;
//! 2. **bloom filters on LSM components** (storage): point lookups skip
//!    components that cannot contain the key;
//! 3. **sorted-PK index fetch** (dataset access paths): the instance-level
//!    version of E7, toggled through the query path end-to-end;
//!
//! and one that has no switch: **storage compression** (§VII's "recent
//! examples include storage compression"), a primary component's string
//! columns FSST-coded — what they would take as plain strings against what
//! they take, read from the counters every flush and merge bumps.

use crate::{ms, time_it, ExpReport, MISSING};
use asterix_adm::binary::encode_key;
use asterix_adm::Value;
use asterix_core::datagen::DataGen;
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::lsm::{LsmConfig, LsmIndex, LsmTree, MergePolicy};
use asterix_storage::stats::IoStats;
use std::sync::Arc;

pub fn run(quick: bool) -> ExpReport {
    let mut report = ExpReport::new(
        "E13",
        "ablations: local aggregation, bloom filters, sorted fetch, compression".to_string(),
        &["ablation", "setting", "key_metric", "time_ms"],
    );
    ablate_local_aggregation(&mut report, quick);
    ablate_bloom_filters(&mut report, quick);
    ablate_sorted_fetch(&mut report, quick);
    measure_string_coding(&mut report, quick);
    report.note(
        "each switch defaults to the AsterixDB choice; the deltas justify the \
         engineering the paper's §V-C 'make sure it's beneficial' lens demands",
    );
    report
}

fn ablate_local_aggregation(report: &mut ExpReport, quick: bool) {
    let n: i64 = if quick { 5_000 } else { 40_000 };
    let load = |local: bool| {
        let db = Instance::open(InstanceConfig {
            nodes: 4,
            partitions: 4,
            local_aggregation: local,
            ..Default::default()
        })
        .unwrap();
        db.execute_sqlpp(
            "CREATE TYPE T AS { id: int, grp: int, val: int };
             CREATE DATASET D(T) PRIMARY KEY id;",
        )
        .unwrap();
        let mut txn = db.begin();
        for i in 0..n {
            txn.write(
                "D",
                &asterix_adm::parse::parse_value(&format!(
                    r#"{{"id":{i},"grp":{},"val":{}}}"#,
                    i % 8, // few groups: pre-aggregation collapses hard
                    i % 100
                ))
                .unwrap(),
                true,
            )
            .unwrap();
        }
        txn.commit().unwrap();
        db
    };
    let (split, direct) = (load(true), load(false));
    // a grouped and a scalar aggregate: one jobgen function compiles both,
    // so the knob must govern both
    for (ablation, sql, groups) in [
        (
            "local aggregation",
            "SELECT d.grp AS g, COUNT(*) AS n, SUM(d.val) AS s FROM D d GROUP BY d.grp",
            8,
        ),
        ("local aggregation (scalar)", "SELECT COUNT(*) AS n, SUM(d.val) AS s FROM D d", 1),
    ] {
        let exchanged = [(&split, "on (default)"), (&direct, "off")].map(|(db, setting)| {
            let before = db.metrics_snapshot();
            let (rows, t) = time_it(|| db.query(sql).unwrap());
            assert_eq!(rows.len(), groups);
            let delta = db.metrics_snapshot().delta(&before);
            let moved = delta.counter("hyracks.dataflow.tuples_exchanged").expect(MISSING);
            report.row(&[
                ablation.into(),
                setting.into(),
                format!("{moved} tuples exchanged"),
                ms(t),
            ]);
            moved
        });
        // asserted on counts, never on a time
        assert!(
            exchanged[0] < exchanged[1],
            "{ablation}: the split must exchange fewer tuples than the direct plan: {exchanged:?}"
        );
    }
}

fn ablate_bloom_filters(report: &mut ExpReport, quick: bool) {
    let n: i64 = if quick { 20_000 } else { 80_000 };
    let probes = if quick { 2_000 } else { 8_000 };
    for bloom in [true, false] {
        let root = crate::experiments::exp_dir("e13");
        let fm = FileManager::new(&root, IoStats::new()).unwrap();
        let cache = BufferCache::new(Arc::clone(&fm), 64);
        let mut tree = LsmTree::new(
            Arc::clone(&cache),
            LsmConfig {
                name: "t".into(),
                mem_budget: 256 << 10,
                merge_policy: MergePolicy::NoMerge, // many components: blooms shine
                bloom,
                layout: None,
            },
        );
        // random insertion order: every component spans the whole key range,
        // so min/max pruning is useless and the bloom filter is load-bearing
        let mut order = DataGen::new(77);
        for _ in 0..n {
            let k = order.int(0, n);
            tree.upsert(encode_key(&[Value::Int(k)]), vec![b'v'; 64]).unwrap();
        }
        tree.flush().unwrap();
        let components = tree.component_count();
        let mut gen = DataGen::new(13);
        let before = fm.stats().physical_reads();
        let (_, t) = time_it(|| {
            for _ in 0..probes {
                // mix of hits and guaranteed misses inside the key range
                let k = gen.int(0, n * 2);
                let _ = tree.get(&encode_key(&[Value::Int(k)])).unwrap();
            }
        });
        let reads = (fm.stats().physical_reads() - before) as f64 / probes as f64;
        report.row(&[
            "bloom filters".into(),
            if bloom { "on (default)" } else { "off" }.into(),
            format!("{reads:.2} reads/lookup across {components} components"),
            ms(t),
        ]);
    }
}

fn ablate_sorted_fetch(report: &mut ExpReport, quick: bool) {
    let n: i64 = if quick { 10_000 } else { 60_000 };
    // the fetched column is 120 bytes of noise a record — 146 pages quick,
    // 879 full — and the cache holds under half of it either way
    let cache_pages = if quick { 64 } else { 256 };
    let mut reads = [0; 2];
    for (i, sorted) in [true, false].into_iter().enumerate() {
        let db = Instance::open(InstanceConfig {
            nodes: 1,
            partitions: 1,
            cache_pages_per_node: cache_pages,
            sorted_index_fetch: sorted,
            ..Default::default()
        })
        .unwrap();
        db.execute_sqlpp(
            "CREATE TYPE T AS { id: int, grp: int, pad: string };
             CREATE DATASET D(T) PRIMARY KEY id;
             CREATE INDEX byGrp ON D(grp);",
        )
        .unwrap();
        let mut txn = db.begin();
        let mut gen = DataGen::new(14);
        for i in 0..n {
            txn.write(
                "D",
                &asterix_adm::parse::parse_value(&format!(
                    r#"{{"id":{i},"grp":{},"pad":"{}"}}"#,
                    gen.int(0, 16),
                    gen.noise(120)
                ))
                .unwrap(),
                true,
            )
            .unwrap();
        }
        txn.commit().unwrap();
        db.flush_all().unwrap();
        let before = db.cluster().total_physical_reads();
        // a multi-group range: the index yields (grp, pk) runs, so without
        // sorting the fetch sweeps the primary index once per group run
        let (rows, t) = time_it(|| {
            db.query("SELECT VALUE d.pad FROM D d WHERE d.grp >= 2 AND d.grp <= 9")
                .unwrap()
        });
        reads[i] = db.cluster().total_physical_reads() - before;
        report.row(&[
            "sorted index fetch".into(),
            if sorted { "on (default)" } else { "off" }.into(),
            format!("{} physical reads for {} index hits", reads[i], rows.len()),
            ms(t),
        ]);
    }
    // asserted on counts, never on a time
    assert!(reads[0] < reads[1], "sorted fetch must read fewer pages than unsorted: {reads:?}");
}

/// A Gleambook message load, flushed: the bytes its string chunks would take
/// plain and take coded, and the pages it wrote. Flushes only — no merge runs
/// on in the background — so the counters are read once the load is done.
fn measure_string_coding(report: &mut ExpReport, quick: bool) {
    let n: i64 = if quick { 10_000 } else { 60_000 };
    let storage = StorageConfig { merge_policy: MergePolicy::NoMerge, ..Default::default() };
    let db = Instance::open(InstanceConfig { nodes: 1, partitions: 1, storage, ..Default::default() }).unwrap();
    db.execute_sqlpp(
        "CREATE TYPE GleambookMessageType AS {
            messageId: int, authorId: int, inResponseTo: int?, senderLocation: point?, message: string
         };
         CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;",
    )
    .unwrap();
    let mut gen = DataGen::new(31);
    let (_, t_load) = time_it(|| {
        for from in (0..n).step_by(1_000) {
            let mut txn = db.begin();
            for id in from..(from + 1_000).min(n) {
                txn.write("GleambookMessages", &gen.message(id, 1_000), true).unwrap();
            }
            txn.commit().unwrap();
        }
        db.flush_all().unwrap();
    });
    let snap = db.metrics_snapshot();
    let node = |name: &str| snap.counter(&format!("node0.storage.{name}")).expect(MISSING);
    let (plain, coded) = (node("lsm.string_bytes_plain"), node("lsm.string_bytes_coded"));
    let (messages, t_scan) = time_it(|| db.query("SELECT VALUE m.message FROM GleambookMessages m").unwrap());
    assert_eq!(messages.len() as i64, n);
    assert!(coded < plain, "coded string chunks of {coded} bytes against {plain} plain");
    report.row(&["storage compression".into(), "strings as they are".into(), format!("{plain} bytes of string chunks"), "-".into()]);
    report.row(&[
        "storage compression".into(),
        "FSST-coded (the format)".into(),
        format!("{coded} bytes of string chunks, {} pages written for {n} records", node("io.physical_writes")),
        format!("{} load / {} scan", ms(t_load), ms(t_scan)),
    ]);
}

#[cfg(test)]
mod tests {
    #[test]
    fn e13_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 10);
        // local aggregation must move far fewer tuples, grouped and scalar
        let parse = |s: &str| s.split(' ').next().unwrap().parse::<u64>().unwrap();
        for pair in r.rows[..4].chunks(2) {
            let (on, off) = (&pair[0][2], &pair[1][2]);
            assert!(parse(on) < parse(off) / 2, "{}: on={on} off={off}", pair[0][0]);
        }
        // a fetch in key order reads the column it fetches fewer times over
        let (sorted, unsorted) = (&r.rows[6][2], &r.rows[7][2]);
        assert!(parse(sorted) < parse(unsorted), "sorted={sorted} unsorted={unsorted}");
        // the string chunks of a message load take under half their plain bytes
        let (plain, coded) = (&r.rows[8][2], &r.rows[9][2]);
        assert!(parse(coded) < parse(plain) / 2, "plain={plain} coded={coded}");
    }
}
