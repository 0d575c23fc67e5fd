//! Tail-latency SLO bench for the concurrent serving layer — the persistent
//! baseline behind `BENCH_serving.json`.
//!
//! N closed-loop clients (each a [`Session`], each with exactly one query in
//! flight) hammer one instance with a fixed mix of the repo's experiment
//! workload shapes:
//!
//! * **e01-shape** — GROUP BY COUNT aggregation over the whole dataset;
//! * **e04-shape** — GROUP BY COUNT + SUM (two aggregates per group);
//! * **e07-shape** — primary-key point lookup.
//!
//! For each client count the suite reports queries/sec and the p50/p95/p99
//! latency of the *full* serving path — admission queueing included, because
//! queue wait is exactly what an SLO on a saturated system is about.
//!
//! Latencies are wall-clock on whatever host runs this, so absolute numbers
//! are only comparable within one run; the point of the artifact is the
//! *shape*: tail latency as a function of offered concurrency under a fixed
//! admission configuration (which the JSON records).

use crate::{num, report_doc};
use asterix_core::scheduler::SchedulerConfig;
use asterix_core::{CoreError, Instance, InstanceConfig};
use asterix_obs::{Counter, Json};
use asterix_storage::lock_order::Mutex;
use std::time::{Duration, Instant};

/// Client counts the sweep visits (the acceptance floor is three points).
const CLIENTS: [usize; 4] = [1, 2, 4, 8];

/// Nearest-rank percentile over an already-sorted sample.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

fn setup(records: usize) -> Instance {
    let db = Instance::open(InstanceConfig {
        scheduler: SchedulerConfig::default(),
        ..Default::default()
    })
    .expect("open instance");
    db.execute_sqlpp(
        "CREATE TYPE M AS { messageId: int, authorId: int, grp: int, val: int, message: string };
         CREATE DATASET Messages(M) PRIMARY KEY messageId;",
    )
    .expect("ddl");
    let mut txn = db.begin();
    for i in 0..records {
        let rec = asterix_adm::parse::parse_value(&format!(
            r#"{{"messageId":{i},"authorId":{},"grp":{},"val":{},"message":"msg body {i}"}}"#,
            i % 97,
            i % 64,
            i % 1000,
        ))
        .expect("record");
        txn.write("Messages", &rec, true).expect("load");
    }
    txn.commit().expect("commit");
    db
}

/// The query mix, cycled per client by query index.
fn query_text(records: usize, client: usize, k: usize) -> String {
    match k % 3 {
        0 => "SELECT m.authorId AS a, COUNT(*) AS c FROM Messages m GROUP BY m.authorId".into(),
        1 => "SELECT m.grp AS g, COUNT(*) AS c, SUM(m.val) AS s FROM Messages m GROUP BY m.grp"
            .into(),
        _ => {
            // point lookups spread across the key space per (client, k)
            let key = (client * 7919 + k * 131) % records;
            format!("SELECT VALUE m.message FROM Messages m WHERE m.messageId = {key}")
        }
    }
}

/// One closed-loop sweep point: `clients` sessions, each running
/// `queries_per_client` queries back-to-back: the point's throughput, its
/// latency percentiles and its backpressure-retry count.
fn run_point(db: &Instance, clients: usize, queries_per_client: usize, records: usize) -> Json {
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let backpressure = Counter::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let latencies = &latencies;
            let backpressure = &backpressure;
            let session = db.session();
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(queries_per_client);
                for k in 0..queries_per_client {
                    let text = query_text(records, c, k);
                    let t0 = Instant::now();
                    loop {
                        match session.submit(&text) {
                            Ok(handle) => {
                                handle.wait().expect("bench query");
                                break;
                            }
                            // typed backpressure: the closed-loop client
                            // backs off and resubmits (latency keeps
                            // accruing — the client is still waiting)
                            Err(CoreError::Saturated(_)) => {
                                backpressure.inc();
                                asterix_storage::lock_order::sleep(Duration::from_millis(1));
                            }
                            Err(e) => panic!("bench query failed: {e}"),
                        }
                    }
                    mine.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies.lock().extend(mine);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut ms = latencies.into_inner();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Json::obj([
        ("clients", Json::U64(clients as u64)),
        ("queries", Json::U64(ms.len() as u64)),
        ("elapsed_s", num(elapsed_s)),
        ("qps", num(ms.len() as f64 / elapsed_s)),
        ("p50_ms", num(percentile(&ms, 0.50))),
        ("p95_ms", num(percentile(&ms, 0.95))),
        ("p99_ms", num(percentile(&ms, 0.99))),
        ("backpressure_retries", Json::U64(backpressure.get())),
    ])
}

/// Runs the sweep: `BENCH_serving.json`'s contents.
pub fn run(quick: bool) -> Json {
    let records = if quick { 2_000 } else { 8_000 };
    let queries_per_client = if quick { 9 } else { 30 };
    eprintln!("serving: loading {records} records...");
    let db = setup(records);
    let loaded = db.metrics_snapshot();
    let mut points = Vec::new();
    for clients in CLIENTS {
        eprintln!("serving: {clients} closed-loop client(s)...");
        points.push(run_point(&db, clients, queries_per_client, records));
    }
    let sched = db.scheduler().config().clone();
    let swept = db.metrics_snapshot().delta(&loaded);
    let served = |name: &str| Json::U64(swept.counter(&format!("core.serving.{name}")).unwrap_or(0));
    report_doc(
        "repro serving",
        quick,
        [
            (
                "methodology",
                Json::str(
                    "closed-loop clients, one query in flight each; latency spans submit->rows \
                     including admission queueing; percentiles are nearest-rank over all queries \
                     of a point; serving_counters are core.serving.* over the sweep",
                ),
            ),
            (
                "workload",
                Json::obj([
                    ("records", Json::U64(records as u64)),
                    ("queries_per_client", Json::U64(queries_per_client as u64)),
                    (
                        "mix",
                        Json::Arr(
                            ["e01_group_count", "e04_group_count_sum", "e07_point_lookup"]
                                .map(Json::str)
                                .into(),
                        ),
                    ),
                ]),
            ),
            (
                "scheduler",
                Json::obj([
                    ("total_memory", Json::U64(sched.total_memory as u64)),
                    ("default_query_memory", Json::U64(sched.default_query_memory as u64)),
                    ("max_concurrent", Json::U64(sched.max_concurrent as u64)),
                    ("queue_depth", Json::U64(sched.queue_depth as u64)),
                ]),
            ),
            (
                "serving_counters",
                Json::obj([
                    ("admitted", served("admitted")),
                    ("rejected", served("rejected")),
                    ("completed", served("completed")),
                ]),
            ),
            ("points", Json::Arr(points)),
        ],
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn percentiles_are_nearest_rank() {
        let ms: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(super::percentile(&ms, 0.50), 50.0);
        assert_eq!(super::percentile(&ms, 0.95), 95.0);
        assert_eq!(super::percentile(&ms, 0.99), 99.0);
        assert_eq!(super::percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn serving_quick_meets_acceptance_shape() {
        let doc = super::run(true);
        let json = doc.render_pretty();
        assert!(!json.contains("NaN") && !json.contains("inf") && !json.contains("null"));
        assert!(json.contains("\"generated_by\": \"repro serving\""));
        // one point per client count, each with ordered percentiles
        assert_eq!(json.matches("\"clients\": ").count(), super::CLIENTS.len());
        for i in 0..super::CLIENTS.len() {
            let at = |k: &str| crate::number(&doc, &["points", &i.to_string(), k]);
            let (p50, p95, p99) = (at("p50_ms"), at("p95_ms"), at("p99_ms"));
            assert!(p50 <= p95 && p95 <= p99, "percentile order at point {i}: {p50} {p95} {p99}");
            assert!(at("qps") > 0.0, "qps must be positive at point {i}");
        }
    }
}
