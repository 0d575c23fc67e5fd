//! `repro` — regenerates every experiment table of EXPERIMENTS.md.
//!
//! ```text
//! repro              # run all 13 experiments at full size
//! repro --quick      # small sizes (seconds instead of minutes)
//! repro e2 e7        # selected experiments
//! repro --markdown   # emit Markdown tables (for EXPERIMENTS.md)
//! repro hotpath      # hot paths below an instance -> BENCH_hotpath.json
//! repro serving      # multi-client serving sweep -> BENCH_serving.json
//! repro feeds        # sustained-ingestion suite -> BENCH_feeds.json
//! repro hotpath --quick --out FILE   # any of the three: small, written elsewhere
//! repro profile e01  # per-operator query profile: text tree, then the report
//! repro profile e01 --out profile.json   # the report into a file as well
//! ```

use asterix_bench::{experiments, feeds, hotpath, profile, serving};

/// The value that follows `flag` on the command line.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
}

/// Prints a report, and writes it where `--out` says or else to `default`.
fn emit(args: &[String], default: Option<&str>, report: &asterix_obs::Json) {
    let json = report.render_pretty();
    print!("{json}");
    if let Some(out) = flag_value(args, "--out").map(String::as_str).or(default) {
        std::fs::write(out, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("report written to {out}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let markdown = args.iter().any(|a| a == "--markdown" || a == "-m");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    match ids.first().map(|s| s.as_str()) {
        Some("profile") => {
            let exp = ids.get(1).map_or("e01", |s| s.as_str());
            let Some(run) = profile::run(exp, quick) else {
                eprintln!("unknown profile target {exp:?} (supported: e01)");
                std::process::exit(2);
            };
            println!("{}", run.text);
            return emit(&args, None, &run.json);
        }
        Some("feeds") => return emit(&args, Some("BENCH_feeds.json"), &feeds::run(quick)),
        Some("serving") => return emit(&args, Some("BENCH_serving.json"), &serving::run(quick)),
        Some("hotpath") => return emit(&args, Some("BENCH_hotpath.json"), &hotpath::run(quick)),
        _ => {}
    }

    let reports = if ids.is_empty() {
        eprintln!(
            "running all 13 experiments ({} sizes)...",
            if quick { "quick" } else { "full" }
        );
        experiments::all(quick)
    } else {
        let mut out = Vec::new();
        for id in ids {
            match experiments::by_id(id, quick) {
                Some(r) => out.push(r),
                None => {
                    eprintln!("unknown experiment {id:?} (expected e1..e13)");
                    std::process::exit(2);
                }
            }
        }
        out
    };
    for r in &reports {
        if markdown {
            println!("{}", r.render_markdown());
        } else {
            println!("{}", r.render());
        }
    }
    eprintln!("{} experiment(s) completed", reports.len());
}
