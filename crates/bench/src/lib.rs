//! # asterix-bench — the reproduction harness
//!
//! One module per experiment in DESIGN.md's experiment index (E1–E13), each
//! regenerating the paper-shaped table for one figure or empirical claim of
//! "AsterixDB Mid-Flight" (ICDE 2019). The `repro` binary runs them and
//! prints the tables recorded in EXPERIMENTS.md.
//!
//! Beside them, the measurements the repository benchmark (`benchmark/`)
//! cannot make — below an instance, across a knob it fixes, or with more
//! than one client: [`hotpath`], [`serving`], [`feeds`] and [`profile`]
//! each build one report ([`report_doc`]), which `scripts/bench-check.py`
//! checks against the committed `BENCH_*.json`.

pub mod experiments;
pub mod feeds;
pub mod hotpath;
pub mod profile;
pub mod report;
pub mod serving;

pub use report::ExpReport;

use asterix_obs::Json;

/// A report: the header `scripts/bench-check.py` reads to decide what it may
/// compare with a committed file — which suite, at which size, on how many
/// cpus — then the suite's `sections`.
pub fn report_doc<'a>(
    generated_by: &str,
    quick: bool,
    sections: impl IntoIterator<Item = (&'a str, Json)>,
) -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = [
        ("schema_version", Json::U64(3)),
        ("generated_by", Json::str(generated_by)),
        ("quick", Json::Bool(quick)),
        ("host", Json::obj([("cpus", Json::U64(cpus as u64))])),
    ];
    Json::obj(header.into_iter().chain(sections))
}

/// What a read of a metric by name says when nothing exports the name: a
/// misspelt name fails the run instead of reading 0.
pub const MISSING: &str = "no such metric";

/// A measured value, to three decimals.
pub fn num(v: f64) -> Json {
    Json::F64((v * 1e3).round() / 1e3)
}

/// Wall-clock helper.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with two decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
/// The number at `path` of a report, a list index written as its digits.
fn number(doc: &Json, path: &[&str]) -> f64 {
    let found = path.iter().fold(doc, |node, step| match node {
        Json::Obj(fields) => &fields.iter().find(|(k, _)| k == step).expect(step).1,
        Json::Arr(items) => &items[step.parse::<usize>().expect(step)],
        _ => panic!("{step}: nothing below a scalar"),
    });
    match found {
        Json::U64(n) => *n as f64,
        Json::F64(x) => *x,
        other => panic!("{path:?} is {other:?}, not a number"),
    }
}
