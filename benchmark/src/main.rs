//! The repository benchmark. See `README.md` beside `Cargo.toml`.
//!
//! `asterix-benchmark --workload W --seed N --seconds S --trace 0|1` runs
//! one workload and prints, as the last line of standard output, one JSON
//! object `{correct, attempted, failed, metrics}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Without
//! `--workload` it runs all four, each in a process of its own.

mod metrics;
mod oracle;
mod probes;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use asterix_obs::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const SMOKE_SECONDS: f64 = 1.0;

pub struct Options {
    /// One of `workload::WORKLOADS`; empty means all of them.
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, same checks; numbers are not comparable.
    pub smoke: bool,
    /// Corrupt the oracle by one record, to prove the checks fire.
    pub inject_wrong: bool,
    /// Where result files, traces and the temporary data directories go.
    pub out: PathBuf,
}

const USAGE: &str = "usage: run.sh [--workload scan_agg|pk_lookup|ingest|htap_mix] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--inject-wrong]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        inject_wrong: false,
        out: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = value("--workload")?,
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => o.out = PathBuf::from(value("--out")?),
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--inject-wrong" => o.inject_wrong = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !o.workload.is_empty() && !workload::WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{USAGE}", o.workload));
    }
    if o.out.as_os_str().is_empty() {
        return Err("--out DIR is required (run.sh passes it)".into());
    }
    if o.seconds <= 0.0 {
        o.seconds = if o.smoke {
            SMOKE_SECONDS
        } else {
            workload::RUN_SECONDS
        };
    }
    Ok(o)
}

/// The result line the caller parses: exactly these four keys.
fn result_line(report: &run::Report, trace: bool) -> String {
    let (values, defs) = report.metrics(trace);
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.correct)),
        ("attempted".into(), Json::U64(report.attempted)),
        ("failed".into(), Json::U64(report.failed)),
        ("metrics".into(), metrics::to_json(values, defs)),
    ])
    .render()
}

fn run_one(opts: &Options) -> Result<bool, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(&opts.out)?;
    let report = run::run(opts)?;
    let suffix = if opts.trace { ".traced" } else { "" };
    let path = opts.out.join(format!("{}{suffix}.json", opts.workload));
    std::fs::write(path, report.file.render_pretty())?;
    let (values, defs) = report.metrics(opts.trace);
    let note = if opts.smoke {
        "  (smoke sizes: not comparable)"
    } else {
        ""
    };
    println!(
        "workload {} seed {} seconds {}{note}",
        opts.workload, opts.seed, opts.seconds
    );
    for d in defs {
        println!(
            "  {:<38} {:>16.4} {:<6} ({} is better)",
            d.name, values[d.name], d.unit, d.better
        );
    }
    for (layer, ms) in &report.layer_self_time_ms {
        println!("  self time inside ops, {layer:<25} {ms:>16.4} ms");
    }
    println!("  attempted {} failed {}", report.attempted, report.failed);
    println!("{}", result_line(&report, opts.trace));
    Ok(report.correct)
}

/// Runs every workload in a process of its own, so that none inherits
/// another's heap, page cache footprint or peak memory.
fn run_all(args: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    for w in workload::WORKLOADS {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", w])
            .status()?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.workload.is_empty() {
        run_all(&args)
    } else {
        run_one(&opts)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: wrong answers or failed operations");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_callers_argument_forms_parse() {
        let o = parse_args(&args(
            "--out o --workload ingest --seed 9 --seconds 20 --trace 0",
        ))
        .expect("parses");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("ingest", 9, 20.0, false)
        );
        let smoke = parse_args(&args("--out o --trace 1 --smoke")).expect("parses");
        assert!(smoke.trace && smoke.smoke && smoke.seconds == SMOKE_SECONDS);
        assert!(parse_args(&args("--out o --workload nope")).is_err());
        assert!(parse_args(&args("--out o --trace")).is_err());
        assert!(parse_args(&args("--out o --seed")).is_err());
        assert!(parse_args(&args("--workload ingest")).is_err());
    }
}
