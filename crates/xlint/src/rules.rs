//! The lint rules (L2, L5–L8) and the suppression/annotation directives.
//! Panic-freedom is not here: clippy's `unwrap_used`/`expect_used`/`panic`/
//! `unreachable` lints check it. Nor is lock order: `storage::lock_order`
//! checks it at run time in debug builds.
//!
//! Rules operate on [`crate::lexer::MaskedFile`]s, so substring matches
//! cannot be fooled by comments or string literals. See DESIGN.md
//! "Correctness tooling" for the rule catalogue and suppression syntax.

use crate::callgraph;
use crate::lexer::{mask, MaskedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Missing `#![forbid(unsafe_code)]` in a non-shim crate root.
    UnsafeForbid,
    /// A blocking primitive reachable from a cooperative actor entry point.
    BlockingInActor,
    /// Immediately-dropped or prematurely-dropped lock/admission guard.
    GuardDrop,
    /// `Ordering::Relaxed` in a CAS or consumed RMW without an
    /// `// xlint: ordering(<why>)` annotation.
    AtomicOrdering,
    /// Metric name referenced but never registered, or registered but never
    /// incremented.
    MetricHygiene,
}

impl Rule {
    pub fn name(&self) -> &'static str {
        match self {
            Rule::UnsafeForbid => "unsafe",
            Rule::BlockingInActor => "blocking",
            Rule::GuardDrop => "guard_drop",
            Rule::AtomicOrdering => "atomic_ordering",
            Rule::MetricHygiene => "metric",
        }
    }
}

#[derive(Debug)]
pub struct Violation {
    pub rule: Rule,
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

#[derive(Debug)]
pub struct Suppression {
    pub rule_name: String,
    pub path: PathBuf,
    pub line: usize,
    pub reason: String,
    /// Trimmed masked code of the suppressed line — part of the baseline
    /// fingerprint, so a suppression cannot silently migrate to different
    /// code.
    pub code: String,
}

/// Result of a full workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub suppressions: Vec<Suppression>,
    pub files_checked: usize,
    pub lines_checked: usize,
}

impl Report {
    /// Suppression counts per rule name, sorted.
    pub fn suppression_counts(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for s in &self.suppressions {
            *m.entry(s.rule_name.clone()).or_insert(0) += 1;
        }
        m
    }
}

/// A workspace file queued for scanning.
pub struct SourceFile {
    /// Path as reported in diagnostics (workspace-relative when possible).
    pub path: PathBuf,
    /// Crate short name (`storage`, `core`, …, `<root>` for the root crate).
    pub crate_name: String,
    /// Whole file is test/dev code (`tests/`, `benches/`, `examples/` dirs).
    pub file_is_test: bool,
    /// This file is a crate root (`lib.rs`, `main.rs`, `bin/*.rs`).
    pub is_crate_root: bool,
    /// The crate lives under `crates/shims/`.
    pub is_shim: bool,
    pub text: String,
}

/// A nested package that declares its own `[workspace]` (the standalone
/// `benchmark/` harness) is not a member of the linted workspace: its
/// functions must not join the name-based call graph.
fn is_foreign_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Discovers every `.rs` file under `root` that belongs to the workspace.
pub fn discover(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for e in entries {
            let p = e.path();
            let name = e.file_name().to_string_lossy().into_owned();
            if e.file_type()?.is_dir() {
                if name == "target" || name.starts_with('.') || is_foreign_workspace(&p) {
                    continue;
                }
                stack.push(p);
                continue;
            }
            if !name.ends_with(".rs") {
                continue;
            }
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let is_shim = rel_str.starts_with("crates/shims/");
            let crate_name = if let Some(rest) = rel_str.strip_prefix("crates/shims/") {
                rest.split('/').next().unwrap_or("").to_string()
            } else if let Some(rest) = rel_str.strip_prefix("crates/") {
                rest.split('/').next().unwrap_or("").to_string()
            } else {
                "<root>".to_string()
            };
            let comps: Vec<&str> = rel_str.split('/').collect();
            let file_is_test = comps.iter().any(|c| {
                *c == "tests" || *c == "benches" || *c == "examples" || *c == "fixtures"
            });
            let src_pos = comps.iter().position(|c| *c == "src");
            let is_crate_root = match src_pos {
                Some(i) => {
                    let tail = &comps[i + 1..];
                    tail == ["lib.rs"]
                        || tail == ["main.rs"]
                        || (tail.len() == 2 && tail[0] == "bin")
                }
                None => false,
            };
            let text = std::fs::read_to_string(&p)?;
            out.push(SourceFile {
                path: rel,
                crate_name,
                file_is_test,
                is_crate_root,
                is_shim,
                text,
            });
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Runs all rules over `files` (no external documents) and returns the
/// combined report.
#[cfg_attr(not(test), allow(dead_code))]
pub fn check(files: &[SourceFile]) -> Report {
    check_with_docs(files, &[])
}

/// Runs all rules over `files`, plus the L8 metric cross-check against
/// `docs` (path, text) pairs — DESIGN.md / README.md metric references.
pub fn check_with_docs(files: &[SourceFile], docs: &[(PathBuf, String)]) -> Report {
    let mut rep = Report::default();
    let masked: Vec<MaskedFile> = files.iter().map(|f| mask(&f.text)).collect();
    rep.files_checked = files.len();
    rep.lines_checked = masked.iter().map(|m| m.lines.len()).sum();

    for (f, m) in files.iter().zip(&masked) {
        if f.is_shim {
            continue;
        }
        check_l2(f, m, &mut rep);
        if f.file_is_test {
            continue;
        }
        check_l6(f, m, &mut rep);
        check_l7(f, m, &mut rep);
    }
    check_l5(files, &masked, &mut rep);
    check_l8(files, &masked, docs, &mut rep);
    rep
}

/// Parses `// xlint: allow(<rule>, "<reason>")` from a line's comments.
pub(crate) fn allow_directive(comments: &[String]) -> Option<(String, String)> {
    comments.iter().find_map(|c| {
        let t = c.trim();
        let rest = t.strip_prefix("xlint:")?.trim_start();
        let rest = rest.strip_prefix("allow(")?;
        let close = rest.rfind(')')?;
        let inner = &rest[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim().trim_matches('"').to_string()),
            None => (inner.trim(), String::new()),
        };
        Some((rule.to_string(), reason))
    })
}

/// Records a violation unless the line carries a matching allow directive;
/// suppressions are recorded either way (they are counted and reported).
#[allow(clippy::too_many_arguments)]
fn push_checked(
    rep: &mut Report,
    rule: Rule,
    f: &SourceFile,
    line_idx: usize,
    code: &str,
    comments: &[String],
    message: String,
) {
    if let Some((name, reason)) = allow_directive(comments) {
        if name == rule.name() {
            rep.suppressions.push(Suppression {
                rule_name: name,
                path: f.path.clone(),
                line: line_idx + 1,
                reason,
                code: code.trim().to_string(),
            });
            return;
        }
    }
    rep.violations.push(Violation { rule, path: f.path.clone(), line: line_idx + 1, message });
}

// ---------------------------------------------------------------- L2

fn check_l2(f: &SourceFile, m: &MaskedFile, rep: &mut Report) {
    if !f.is_crate_root || f.file_is_test {
        return;
    }
    let found = m.lines.iter().any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !found {
        rep.violations.push(Violation {
            rule: Rule::UnsafeForbid,
            path: f.path.clone(),
            line: 1,
            message: format!(
                "crate root of `{}` is missing `#![forbid(unsafe_code)]`",
                f.crate_name
            ),
        });
    }
}

// ---------------------------------------------------------------- L5

/// Crates whose code never runs on the shared worker pool: the lint binary
/// itself and the bench driver (a dedicated OS thread per run).
pub const L5_EXEMPT_CRATES: [&str; 2] = ["xlint", "bench"];

/// The traits whose implementations run on a pool worker: `sched::Task`
/// (`step`) and the operator contract `ops::Operator` (`on_batch`, `on_end`,
/// `on_drain`), matched on the `impl … for` line.
pub const ACTOR_CONTRACTS: [&str; 2] = ["Task for ", "Operator for "];

fn check_l5(files: &[SourceFile], masked: &[MaskedFile], rep: &mut Report) {
    let mut defs = Vec::new();
    for (fi, (f, m)) in files.iter().zip(masked).enumerate() {
        if f.is_shim || f.file_is_test || L5_EXEMPT_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        defs.extend(callgraph::extract_fns(fi, m));
    }
    // A file that implements the scheduler's `Task` or the operator contract
    // hosts actor code: it must declare its cooperative entry points,
    // otherwise the reachability walk silently checks nothing there.
    for (fi, (f, m)) in files.iter().zip(masked).enumerate() {
        if f.is_shim || f.file_is_test || L5_EXEMPT_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let host = m.lines.iter().position(|l| {
            let t = l.code.trim_start();
            !l.in_test && t.starts_with("impl") && ACTOR_CONTRACTS.iter().any(|c| t.contains(c))
        });
        if let Some(line) = host {
            if !defs.iter().any(|d| d.file == fi && d.entry) {
                rep.violations.push(Violation {
                    rule: Rule::BlockingInActor,
                    path: f.path.clone(),
                    line: line + 1,
                    message: "actor host declares no `// xlint: actor_entry` functions — \
                              the L5 reachability walk has no seeds here"
                        .to_string(),
                });
            }
        }
    }
    let (reached, opaque) = callgraph::walk(&defs);
    for di in opaque {
        let d = &defs[di];
        rep.suppressions.push(Suppression {
            rule_name: "blocking".to_string(),
            path: files[d.file].path.clone(),
            line: d.decl_line + 1,
            reason: d.opaque_reason.clone(),
            code: masked[d.file].lines[d.decl_line].code.trim().to_string(),
        });
    }
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for r in &reached {
        let d = &defs[r.def];
        let site = &d.blocking[r.site];
        if !seen.insert((d.file, site.line)) {
            continue;
        }
        let code = masked[d.file].lines[site.line].code.trim().to_string();
        if let Some(reason) = &site.allowed {
            rep.suppressions.push(Suppression {
                rule_name: "blocking".to_string(),
                path: files[d.file].path.clone(),
                line: site.line + 1,
                reason: reason.clone(),
                code,
            });
        } else {
            rep.violations.push(Violation {
                rule: Rule::BlockingInActor,
                path: files[d.file].path.clone(),
                line: site.line + 1,
                message: format!(
                    "{} can park a pool worker; reachable from actor entry via {}",
                    site.what,
                    r.chain.join(" -> ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L6

/// RAII guard type names covered by the guard-drop rule in addition to the
/// plain `.lock()/.read()/.write()` results.
pub const GUARD_TYPES: [&str; 3] = ["AdmissionGuard", "WorkerGuard", "Ticket"];

const GUARD_CALLS: [&str; 3] = [".lock()", ".read()", ".write()"];

fn check_l6(f: &SourceFile, m: &MaskedFile, rep: &mut Report) {
    // Shapes (a) and (b): the guard dies at the end of the statement that
    // created it, so it protects nothing.
    for (i, l) in m.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let t = l.code.trim();
        let guard_expr = GUARD_CALLS.iter().any(|p| t.contains(p))
            || GUARD_TYPES.iter().any(|p| t.contains(p))
            || t.contains(".admit(");
        if t.starts_with("let _ =") && guard_expr {
            push_checked(
                rep,
                Rule::GuardDrop,
                f,
                i,
                &l.code,
                &l.comments,
                "guard bound to `_` is dropped at the end of this statement — it \
                 protects nothing (bind to a named `_g` to hold it)"
                    .to_string(),
            );
            continue;
        }
        let bare_guard = GUARD_CALLS.iter().any(|p| t.ends_with(&format!("{p};")));
        if bare_guard && !t.starts_with("let ") && !t.contains('=') {
            push_checked(
                rep,
                Rule::GuardDrop,
                f,
                i,
                &l.code,
                &l.comments,
                "lock acquired as a bare statement — the guard is dropped \
                 immediately"
                    .to_string(),
            );
        }
    }
    // Shape (c): `drop(g)` before the last use of the data `g` protected.
    for d in callgraph::extract_fns(0, m) {
        let hi = d.body_end.min(m.lines.len().saturating_sub(1));
        let mut guards: Vec<(String, String, usize)> = Vec::new(); // ident, receiver, bind line
        for i in d.decl_line..=hi {
            let l = &m.lines[i];
            if l.in_test {
                continue;
            }
            let t = l.code.trim();
            if let Some(rest) = t.strip_prefix("let ") {
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                if let Some((ident, init)) = rest.split_once('=') {
                    let ident = ident.trim();
                    let init = init.trim();
                    if !ident.is_empty()
                        && ident.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
                    {
                        for p in GUARD_CALLS {
                            if let Some(recv) = init.strip_suffix(&format!("{p};")) {
                                guards.push((ident.to_string(), recv.to_string(), i));
                            }
                        }
                    }
                }
            }
        }
        for i in d.decl_line..=hi {
            let l = &m.lines[i];
            if l.in_test {
                continue;
            }
            let t = l.code.trim();
            for (ident, recv, bind_line) in &guards {
                if i <= *bind_line || t != format!("drop({ident});") {
                    continue;
                }
                let used_after = (i + 1..=hi).any(|j| {
                    !m.lines[j].in_test && m.lines[j].code.contains(recv.as_str())
                });
                if used_after {
                    push_checked(
                        rep,
                        Rule::GuardDrop,
                        f,
                        i,
                        &l.code,
                        &l.comments,
                        format!(
                            "guard `{ident}` dropped early but its protected data \
                             `{recv}` is used again later in the same function"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L7

const CAS_TOKENS: [&str; 3] = ["compare_exchange(", "compare_exchange_weak(", "fetch_update("];
const RMW_TOKENS: [&str; 6] =
    [".fetch_add(", ".fetch_sub(", ".fetch_and(", ".fetch_or(", ".fetch_xor(", ".swap("];

/// Parses `// xlint: ordering(<why>)` from a line's comments.
fn ordering_directive(comments: &[String]) -> Option<String> {
    comments.iter().find_map(|c| {
        let rest = c.trim().strip_prefix("xlint:")?.trim_start().strip_prefix("ordering(")?;
        let close = rest.rfind(')')?;
        Some(rest[..close].trim().to_string())
    })
}

/// From the `(` at (`line`, `open_pos`), collects the argument text up to
/// the matching `)`; returns (end line, byte offset just past the close,
/// args). Masked code only, so parens in strings don't confuse it.
fn span_args(m: &MaskedFile, line: usize, open_pos: usize) -> (usize, usize, String) {
    let mut depth = 0i32;
    let mut args = String::new();
    let mut i = line;
    let mut ci = open_pos;
    loop {
        let b = m.lines[i].code.as_bytes();
        while ci < b.len() {
            match b[ci] {
                b'(' => {
                    depth += 1;
                    if depth > 1 {
                        args.push('(');
                    }
                }
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        return (i, ci + 1, args);
                    }
                    args.push(')');
                }
                c => {
                    if depth >= 1 {
                        args.push(c as char);
                    }
                }
            }
            ci += 1;
        }
        args.push(' ');
        i += 1;
        ci = 0;
        if i >= m.lines.len() {
            return (i - 1, 0, args);
        }
    }
}

fn check_l7(f: &SourceFile, m: &MaskedFile, rep: &mut Report) {
    for (i, l) in m.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let code = &l.code;
        let mut finding: Option<(&str, usize)> = None; // token, open-paren pos
        for tok in CAS_TOKENS {
            if let Some(p) = find_unprefixed(code, tok) {
                finding = Some((tok, p + tok.len() - 1));
                break;
            }
        }
        let is_cas = finding.is_some();
        if finding.is_none() {
            for tok in RMW_TOKENS {
                if let Some(p) = code.find(tok) {
                    finding = Some((tok, p + tok.len() - 1));
                    break;
                }
            }
        }
        let Some((tok, open)) = finding else { continue };
        let (end_line, after, args) = span_args(m, i, open);
        if !args.contains("Relaxed") {
            continue;
        }
        if !is_cas {
            // A Relaxed RMW whose result is *discarded* is a plain counter
            // bump — no protocol to audit. Consumed results (return values,
            // bindings, conditions) participate in cross-thread protocols.
            // Receiver-only prefix: a bare `recv.path(...).fetch_add(…);`
            // statement. Whitespace or `=` before the call means the result
            // feeds a binding, condition, or match arm.
            let prefix = code[..open + 1 - tok.len()].trim();
            let receiver_only = !prefix.is_empty()
                && !prefix.contains(|c: char| c.is_whitespace() || c == '=');
            let next_is_semi =
                m.lines[end_line].code[after..].trim_start().starts_with(';');
            if receiver_only && next_is_semi {
                continue;
            }
        }
        if let Some(reason) = (i..=end_line).find_map(|k| ordering_directive(&m.lines[k].comments))
        {
            rep.suppressions.push(Suppression {
                rule_name: "atomic_ordering".to_string(),
                path: f.path.clone(),
                line: i + 1,
                reason,
                code: code.trim().to_string(),
            });
        } else {
            let kind = if is_cas { "CAS" } else { "consumed RMW" };
            push_checked(
                rep,
                Rule::AtomicOrdering,
                f,
                i,
                code,
                &l.comments,
                format!(
                    "`Ordering::Relaxed` in a {kind} (`{}…)`) without an \
                     `// xlint: ordering(<why>)` annotation",
                    tok
                ),
            );
        }
    }
}

/// First occurrence of `tok` in `code` not preceded by an identifier char
/// (so `counter(` does not match inside `observed_counter(`).
fn find_unprefixed(code: &str, tok: &str) -> Option<usize> {
    let mut start = 0usize;
    while let Some(p) = code[start..].find(tok) {
        let abs = start + p;
        if abs == 0 || {
            let c = code.as_bytes()[abs - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        } {
            return Some(abs);
        }
        start = abs + 1;
    }
    None
}

// ---------------------------------------------------------------- L8

const METRIC_CALLS: [&str; 3] = ["observed_counter(\"", "counter(\"", "gauge(\""];
const METRIC_USE: [&str; 4] = [".inc(", ".add(", ".set(", ".sub("];

#[derive(PartialEq)]
enum MetricKind {
    Register,
    Read,
    Other,
}

struct MetricSite {
    file: usize,
    line: usize,
    name: String,
    kind: MetricKind,
    observed: bool,
    binding: Option<String>,
    inline_use: bool,
}

/// `seg.seg2` shape: lowercase/digit/underscore dot-separated segments.
fn is_metric_name(s: &str) -> bool {
    let mut segs = 0;
    for seg in s.split('.') {
        if seg.is_empty()
            || !seg.bytes().next().is_some_and(|b| b.is_ascii_lowercase())
            || !seg.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        segs += 1;
    }
    segs >= 2
}

fn check_l8(
    files: &[SourceFile],
    masked: &[MaskedFile],
    docs: &[(PathBuf, String)],
    rep: &mut Report,
) {
    let mut sites: Vec<MetricSite> = Vec::new();
    let mut witnesses: BTreeSet<String> = BTreeSet::new();
    for (fi, (f, m)) in files.iter().zip(masked).enumerate() {
        if f.is_shim || f.file_is_test {
            continue;
        }
        let orig: Vec<&str> = f.text.lines().collect();
        for (i, l) in m.lines.iter().enumerate() {
            if l.in_test {
                continue;
            }
            let code = &l.code;
            let Some(orig_line) = orig.get(i) else { continue };
            // Metric-call sites: `counter("name")` & friends; the literal
            // text comes from the original line at the masked quote offsets.
            for pat in METRIC_CALLS {
                let Some(abs) = find_unprefixed(code, pat) else { continue };
                let open = abs + pat.len() - 1;
                let Some(close_rel) = code[open + 1..].find('"') else { continue };
                let close = open + 1 + close_rel;
                let Some(name) = orig_line.get(open + 1..close) else { continue };
                if !is_metric_name(name) {
                    continue;
                }
                let prefix = &code[..abs];
                let observed = pat.starts_with("observed_counter");
                let kind = if observed
                    || (prefix.contains("registry") && !prefix.contains("snapshot"))
                    || prefix.trim_end().ends_with("reg.")
                {
                    MetricKind::Register
                } else if prefix.contains("snapshot") || f.crate_name == "bench" {
                    MetricKind::Read
                } else {
                    MetricKind::Other
                };
                let t = code.trim_start();
                let binding = if let Some(rest) = t.strip_prefix("let ") {
                    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                    let id: String = rest
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    (!id.is_empty() && id != "_").then_some(id)
                } else {
                    // Struct-field init: `admitted: registry.counter("…"),`.
                    t.split_once(':').and_then(|(id, rest)| {
                        let id = id.trim();
                        (!rest.starts_with(':')
                            && !id.is_empty()
                            && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'))
                        .then(|| id.to_string())
                    })
                };
                let inline_use = METRIC_USE.iter().any(|u| code[close..].contains(u));
                if kind != MetricKind::Read {
                    witnesses.insert(name.to_string());
                }
                sites.push(MetricSite {
                    file: fi,
                    line: i,
                    name: name.to_string(),
                    kind,
                    observed,
                    binding,
                    inline_use,
                });
            }
            // Bare metric-shaped string literals (dynamic-name match arms
            // like `"hyracks.lifecycle.cancelled"`) witness registration too
            // — but not in `bench`, which only consumes metrics.
            if f.crate_name != "bench" {
                let bytes = code.as_bytes();
                let mut qs: Vec<usize> = Vec::new();
                for (bi, b) in bytes.iter().enumerate() {
                    if *b == b'"' {
                        qs.push(bi);
                    }
                }
                for pair in qs.chunks(2) {
                    let [a, z] = pair else { continue };
                    if METRIC_CALLS.iter().any(|p| code[..a + 1].ends_with(p)) {
                        continue; // already classified above
                    }
                    if let Some(lit) = orig_line.get(a + 1..*z) {
                        if is_metric_name(lit) {
                            witnesses.insert(lit.to_string());
                        }
                    }
                }
            }
        }
    }

    // Per-crate whitespace-condensed non-test code: method chains split
    // across lines (`.park_ns\n.add(…)`) must still count as increments.
    let mut condensed: BTreeMap<&str, String> = BTreeMap::new();
    for (f, m) in files.iter().zip(masked) {
        if f.is_shim || f.file_is_test {
            continue;
        }
        let buf = condensed.entry(f.crate_name.as_str()).or_default();
        for l in &m.lines {
            if !l.in_test {
                buf.extend(l.code.chars().filter(|c| !c.is_whitespace()));
            }
        }
    }

    for s in &sites {
        let f = &files[s.file];
        let l = &masked[s.file].lines[s.line];
        match s.kind {
            MetricKind::Read => {
                if !witnesses.contains(&s.name) {
                    push_checked(
                        rep,
                        Rule::MetricHygiene,
                        f,
                        s.line,
                        &l.code,
                        &l.comments,
                        format!(
                            "metric `{}` is read here but never registered or \
                             incremented anywhere in the workspace",
                            s.name
                        ),
                    );
                }
            }
            MetricKind::Register => {
                if s.observed || s.inline_use {
                    continue; // weak-reader pattern / same-statement use
                }
                let crate_code =
                    condensed.get(f.crate_name.as_str()).map(String::as_str).unwrap_or("");
                let used = s.binding.as_ref().is_some_and(|id| {
                    METRIC_USE
                        .iter()
                        .any(|u| find_unprefixed(crate_code, &format!("{id}{u}")).is_some())
                });
                if !used {
                    push_checked(
                        rep,
                        Rule::MetricHygiene,
                        f,
                        s.line,
                        &l.code,
                        &l.comments,
                        format!(
                            "metric `{}` is registered here but never incremented \
                             (no `.inc()/.add()/.set()` on its handle in \
                             crate `{}`)",
                            s.name, f.crate_name
                        ),
                    );
                }
            }
            MetricKind::Other => {}
        }
    }

    // Doc cross-check: backticked metric-shaped names in DESIGN.md/README.md
    // whose family (first segment) is one we actually emit must resolve to a
    // registered name — catches stale docs after a metric rename.
    let families: BTreeSet<&str> =
        witnesses.iter().filter_map(|w| w.split('.').next()).collect();
    const DOC_EXTS: [&str; 6] = [".rs", ".md", ".json", ".yml", ".toml", ".lock"];
    for (path, text) in docs {
        for (j, line) in text.lines().enumerate() {
            let mut parts = line.split('`');
            parts.next(); // before the first backtick
            while let (Some(tok), next) = (parts.next(), parts.next()) {
                if next.is_none() {
                    break; // unbalanced backticks
                }
                if !is_metric_name(tok) || DOC_EXTS.iter().any(|e| tok.ends_with(e)) {
                    continue;
                }
                let family = tok.split('.').next().unwrap_or("");
                if families.contains(family) && !witnesses.contains(tok) {
                    rep.violations.push(Violation {
                        rule: Rule::MetricHygiene,
                        path: path.clone(),
                        line: j + 1,
                        message: format!(
                            "doc references metric `{tok}` but no such metric is \
                             registered (family `{family}` exists — stale name?)"
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, rel: &str, text: &str) -> SourceFile {
        SourceFile {
            path: PathBuf::from(rel),
            crate_name: crate_name.to_string(),
            file_is_test: false,
            is_crate_root: rel.ends_with("lib.rs") || rel.ends_with("main.rs"),
            is_shim: false,
            text: text.to_string(),
        }
    }

    #[test]
    fn l2_requires_forbid() {
        let rep = check(&[file("storage", "crates/storage/src/lib.rs", "fn f() {}\n")]);
        assert!(rep.violations.iter().any(|v| v.rule == Rule::UnsafeForbid));
    }
}
