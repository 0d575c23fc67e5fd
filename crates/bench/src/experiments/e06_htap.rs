//! E6 — HTAP shadowing (paper Figure 7, Couchbase Analytics).
//!
//! "Data and data changes in the Couchbase front-end data store are streamed
//! in real time into the Couchbase Analytics backend ... this provides
//! performance isolation, so heavy data analysis queries won't interfere
//! with front-end operations and vice versa." We measure shadow lag during
//! ingest, analytics freshness, and front-end operation latency with and
//! without a concurrent analytics workload.

use crate::{ms, time_it, ExpReport};
use asterix_core::dcp::{create_shadow_dataset, FrontEndStore, ShadowLink};
use asterix_core::instance::Instance;
use std::sync::Arc;
use std::time::Duration;

fn doc(id: i64, v: i64) -> asterix_adm::Value {
    asterix_adm::parse::parse_value(&format!(
        r#"{{"id": {id}, "v": {v}, "cat": {}, "pad": "{}"}}"#,
        id % 16,
        "p".repeat(64)
    ))
    .unwrap()
}

pub fn run(quick: bool) -> ExpReport {
    let n_mutations: i64 = if quick { 3_000 } else { 20_000 };
    let n_frontend_ops: i64 = if quick { 5_000 } else { 40_000 };
    let mut report = ExpReport::new(
        "E6",
        format!("HTAP shadowing, Figure 7 ({n_mutations} mutations)"),
        &["measurement", "value", "detail"],
    );
    let db = Instance::temp().unwrap();
    create_shadow_dataset(&db, "Shadow", "id").unwrap();
    let store = FrontEndStore::new();
    let link = ShadowLink::new(store.clone(), db.clone(), "Shadow");

    // 1. measure the shadow's apply capacity (synchronous pump)
    let calib = n_mutations / 4;
    let (_, t_calib) = time_it(|| {
        for i in 0..calib {
            store.set(format!("{}", i % (n_mutations / 2)), doc(i % (n_mutations / 2), i));
        }
        while link.lag() > 0 {
            link.pump().unwrap();
        }
    });
    let apply_rate = calib as f64 / t_calib.as_secs_f64();
    report.row(&[
        "shadow apply capacity".into(),
        format!("{apply_rate:.0} mutations/s"),
        "synchronous DCP pump, 256 mutations a transaction (LSM upserts + WAL)".into(),
    ]);

    // 2. paced ingest at ~60% of apply capacity, pump running concurrently —
    //    the regime a provisioned deployment operates in
    let pump = link.start(Duration::from_millis(1));
    let target_rate = apply_rate * 0.4;
    let mut max_lag = 0u64;
    let batch = 64i64;
    let (_, t_ingest) = time_it(|| {
        let start = std::time::Instant::now();
        for i in 0..n_mutations {
            store.set(format!("{}", i % (n_mutations / 2)), doc(i % (n_mutations / 2), i));
            if i % batch == batch - 1 {
                max_lag = max_lag.max(link.lag());
                // pace to the target arrival rate
                let should_have_taken = (i + 1) as f64 / target_rate;
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed < should_have_taken {
                    asterix_storage::lock_order::sleep(std::time::Duration::from_secs_f64(
                        should_have_taken - elapsed,
                    ));
                }
            }
        }
    });
    let lag_after_ingest = link.lag();
    link.drain().unwrap();
    asterix_storage::lock_order::join(pump).unwrap().unwrap();
    report.row(&[
        "paced ingest rate".into(),
        format!("{:.0} ops/s", n_mutations as f64 / t_ingest.as_secs_f64()),
        "held at ~40% of shadow capacity".into(),
    ]);
    report.row(&[
        "max shadow lag".into(),
        format!("{max_lag} mutations"),
        format!("lag at end of ingest: {lag_after_ingest}"),
    ]);
    // freshness: shadow equals front end
    assert_eq!(db.count("Shadow").unwrap(), store.len());
    report.row(&[
        "post-drain freshness".into(),
        "exact".into(),
        format!("{} shadow records == front-end docs", store.len()),
    ]);

    // analytics latency, idle vs during-ingest
    let analytics = "SELECT s.cat AS c, COUNT(*) AS n, SUM(s.v) AS sv FROM Shadow s GROUP BY s.cat";
    let (idle_rows, t_idle) = time_it(|| db.query(analytics).unwrap());
    assert_eq!(idle_rows.len(), 16);
    // front-end op latency baseline
    let (_, t_fe_alone) = time_it(|| {
        for i in 0..n_frontend_ops {
            let _ = store.get(&format!("{}", i % 100));
        }
    });
    // front-end ops while an analytics query storm runs on another thread
    let db2 = db.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let storm = std::thread::spawn(move || {
        let mut n = 0;
        while !stop2.load(std::sync::atomic::Ordering::Acquire) {
            let _ = db2.query(analytics);
            n += 1;
        }
        n
    });
    let (_, t_fe_busy) = time_it(|| {
        for i in 0..n_frontend_ops {
            let _ = store.get(&format!("{}", i % 100));
        }
    });
    stop.store(true, std::sync::atomic::Ordering::Release);
    let storm_queries: i32 = asterix_storage::lock_order::join(storm).unwrap();
    report.row(&[
        "analytics query (idle)".into(),
        format!("{} ms", ms(t_idle)),
        "16-group aggregate over the shadow".into(),
    ]);
    report.row(&[
        "front-end ops (alone)".into(),
        format!("{:.0} ops/s", n_frontend_ops as f64 / t_fe_alone.as_secs_f64()),
        "KV gets against the Data Service".into(),
    ]);
    report.row(&[
        "front-end ops (analytics storm)".into(),
        format!("{:.0} ops/s", n_frontend_ops as f64 / t_fe_busy.as_secs_f64()),
        format!("{storm_queries} concurrent analytics queries completed"),
    ]);
    report.note(
        "shape: analytics queries touch only the shadow — zero front-end locks \
         or reads; residual front-end slowdown under the storm is pure CPU \
         time-sharing on this 1-core testbed, not data-path interference",
    );
    report.note(format!(
        "near-real-time: at sustainable load the shadow stays within {max_lag} \
         mutations of the front end (of {n_mutations} total), and drains to exact \
         parity; past the apply capacity the stream falls behind and catches up \
         later — the provisioning question every Figure-7 deployment answers"
    ));
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e06_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 7);
    }
}
