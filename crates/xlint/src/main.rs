#![forbid(unsafe_code)]
//! `xlint` — workspace-wide correctness lints for asterix-rs.
//!
//! A self-contained static-analysis pass (no dependencies, hand-rolled like
//! the `crates/shims/` pattern) enforcing the project rules documented in
//! DESIGN.md "Correctness tooling". It checks what nothing else does:
//! panic-freedom (no `unwrap`/`expect`/`panic!`/`unreachable!` outside
//! tests) is clippy's, denied in each engine crate's root; lock order and
//! waits on a pool worker are `asterix_storage::lock_order`'s, checked at
//! run time in debug builds; a raw `sleep`, `join` or channel receive is
//! clippy's `disallowed_methods`; a guard dropped as a bare statement is
//! rustc's `unused_must_use`; and the
//! metric namespace is `core/tests/metric_names.rs`'s, checked against a
//! running instance.
//!
//! * **L2** (`unsafe`) — `#![forbid(unsafe_code)]` in every non-shim crate
//!   root.
//! * **L6** (`guard_drop`) — no lock/admission guard bound to `_` or
//!   `drop()`ed before the data it protects is last used.
//! * **L7** (`atomic_ordering`) — `Ordering::Relaxed` in a CAS or a
//!   consumed RMW needs an `// xlint: ordering(<why>)` annotation.
//!
//! Usage: `cargo run -p xlint -- [--root DIR] [--deny-all]
//! [--baseline FILE] [--update-baseline] [--write-baseline FILE]`

mod baseline;
#[cfg(test)]
mod fixture_tests;
mod lexer;
mod rules;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_all = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut write_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().unwrap_or_else(|| ".".into())),
            "--deny-all" => deny_all = true,
            "--baseline" => baseline_path = args.next().map(PathBuf::from),
            "--update-baseline" => update_baseline = true,
            "--write-baseline" => write_baseline = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "xlint: asterix-rs workspace lints (L2 unsafe, L6 guard-drop, \
                     L7 atomic-ordering; lock order and pool-worker waits are checked at \
                     run time by asterix_storage::lock_order in debug builds, metric \
                     names by core/tests/metric_names.rs)\n\n\
                     options:\n  --root DIR             workspace root (default .)\n  \
                     --deny-all             exit nonzero on any violation\n  \
                     --baseline FILE        fail on suppressions not fingerprinted in FILE\n  \
                     --update-baseline      rewrite the baseline (default xlint-baseline.json)\n  \
                     --write-baseline FILE  record current suppression fingerprints to FILE"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("xlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let files = match rules::discover(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xlint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!("xlint: no .rs files under {}", root.display());
        return ExitCode::from(2);
    }
    let rep = rules::check(&files);

    println!("xlint: checked {} files, {} lines", rep.files_checked, rep.lines_checked);

    if !rep.suppressions.is_empty() {
        println!("\nsuppressions: {} total", rep.suppressions.len());
        for (rule, n) in &rep.suppression_counts() {
            println!("  allow({rule}): {n}");
        }
        for s in &rep.suppressions {
            println!("  {}:{}: allow({}) — \"{}\"", s.path.display(), s.line, s.rule_name, s.reason);
        }
    }

    if !rep.violations.is_empty() {
        println!("\nviolations: {}", rep.violations.len());
        for v in &rep.violations {
            println!("  [{}] {}:{}: {}", v.rule.name(), v.path.display(), v.line, v.message);
        }
    }

    let live = baseline::Baseline::from_suppressions(&rep.suppressions);

    if update_baseline || write_baseline.is_some() {
        let p = write_baseline
            .unwrap_or_else(|| baseline_path.clone().unwrap_or_else(|| root.join("xlint-baseline.json")));
        if let Err(e) = live.write(&p) {
            eprintln!("xlint: cannot write baseline {}: {e}", p.display());
            return ExitCode::from(2);
        }
        println!("\nbaseline written to {} ({} suppressions)", p.display(), live.entries.len());
    }

    let mut failed = false;
    if let Some(p) = baseline_path {
        match baseline::Baseline::read(&p) {
            Ok(base) => {
                let (unbaselined, stale) = base.diff(&live.entries);
                if !unbaselined.is_empty() {
                    println!(
                        "\nbaseline: {} suppression(s) not fingerprinted in {} \
                         (update deliberately with --update-baseline if intended):",
                        unbaselined.len(),
                        p.display()
                    );
                    for e in &unbaselined {
                        println!("  allow({}) in {} [{}]", e.rule, e.file, e.hash);
                    }
                    failed = true;
                }
                if !stale.is_empty() {
                    println!("\nbaseline: {} stale entr(ies) no longer live:", stale.len());
                    for e in &stale {
                        println!("  allow({}) in {} [{}]", e.rule, e.file, e.hash);
                    }
                }
            }
            Err(e) => {
                eprintln!("xlint: cannot read baseline {}: {e}", p.display());
                failed = true;
            }
        }
    }

    if deny_all && !rep.violations.is_empty() {
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("\nxlint: OK");
        ExitCode::SUCCESS
    }
}
