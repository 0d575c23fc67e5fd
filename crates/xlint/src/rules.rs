//! The lint rules (L2, L6, L7) and the suppression/annotation
//! directives. Panic-freedom is not here: clippy's `unwrap_used`/
//! `expect_used`/`panic`/`unreachable` lints check it. Nor are lock order
//! and waits on a pool worker: `storage::lock_order` checks both at run time
//! in debug builds. A guard
//! dropped as a bare statement is rustc's `unused_must_use`, and the metric
//! namespace is `core/tests/metric_names.rs`'s, against a live instance.
//!
//! Rules operate on [`crate::lexer::MaskedFile`]s, so substring matches
//! cannot be fooled by comments or string literals. See DESIGN.md
//! "Correctness tooling" for the rule catalogue and suppression syntax.

use crate::lexer::{mask, MaskedFile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Missing `#![forbid(unsafe_code)]` in a non-shim crate root.
    UnsafeForbid,
    /// Immediately-dropped or prematurely-dropped lock/admission guard.
    GuardDrop,
    /// `Ordering::Relaxed` in a CAS or consumed RMW without an
    /// `// xlint: ordering(<why>)` annotation.
    AtomicOrdering,
}

impl Rule {
    pub fn name(&self) -> &'static str {
        match self {
            Rule::UnsafeForbid => "unsafe",
            Rule::GuardDrop => "guard_drop",
            Rule::AtomicOrdering => "atomic_ordering",
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
/// `benchmark/` harness) is not a member of the linted workspace.
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

/// Runs all rules over `files` and returns the combined report.
pub fn check(files: &[SourceFile]) -> Report {
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
    rep
}

/// Parses `// xlint: allow(<rule>, "<reason>")` from a line's comments.
fn allow_directive(comments: &[String]) -> Option<(String, String)> {
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

// ---------------------------------------------------------------- L6

/// RAII guard type names covered by the guard-drop rule in addition to the
/// plain `.lock()/.read()/.write()` results.
const GUARD_TYPES: [&str; 2] = ["AdmissionGuard", "Ticket"];

const GUARD_CALLS: [&str; 3] = [".lock()", ".read()", ".write()"];

fn check_l6(f: &SourceFile, m: &MaskedFile, rep: &mut Report) {
    // Shape (a): a guard bound to `_` dies at the end of the statement that
    // created it, so it protects nothing. (A guard left as a bare statement
    // is rustc's: the guards are `#[must_use]`.)
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
        }
    }
    // Shape (b): `drop(g)` before the last use of the data `g` protected.
    for (lo, hi) in fn_extents(m) {
        let mut guards: Vec<(String, String, usize)> = Vec::new(); // ident, receiver, bind line
        for i in lo..=hi {
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
        for i in lo..=hi {
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

/// The (`fn` line, closing line) of every non-test function in `m`, found by
/// brace depth over masked code. A `fn` whose signature ends at a `;` (a
/// trait method without a default body) has no extent.
fn fn_extents(m: &MaskedFile) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut open: Vec<(usize, i32)> = Vec::new(); // (index in `out`, depth its body opened at)
    let mut pending: Option<usize> = None; // a `fn` line whose body has not opened yet
    let mut sig_nest = 0i32; // parens/brackets in its signature, so `[u8; 4]` does not end it
    let mut depth = 0i32;
    for (i, l) in m.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let b = l.code.as_bytes();
        for (ci, &c) in b.iter().enumerate() {
            match c {
                b'f' if l.code[ci..].starts_with("fn ")
                    && (ci == 0 || !(b[ci - 1].is_ascii_alphanumeric() || b[ci - 1] == b'_')) =>
                {
                    pending = Some(i);
                    sig_nest = 0;
                }
                b'(' | b'[' if pending.is_some() => sig_nest += 1,
                b')' | b']' if pending.is_some() => sig_nest -= 1,
                b';' if sig_nest == 0 => pending = None,
                b'{' => {
                    depth += 1;
                    if let Some(decl) = pending.take() {
                        // until its `}`, or the end of a truncated file
                        out.push((decl, m.lines.len() - 1));
                        open.push((out.len() - 1, depth));
                    }
                }
                b'}' => {
                    if let Some(&(k, _)) = open.last().filter(|&&(_, d)| d == depth) {
                        out[k].1 = i;
                        open.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
    out
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
/// (so a token does not match the tail of a longer identifier).
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
    fn fn_extents_follow_braces_not_signatures() {
        let src = "trait T {\n    fn sig(x: [u8; 4]) -> u8;\n    fn long(\n        a: u8,\n    ) -> u8 {\n        fn inner() {\n        }\n        a\n    }\n}\n";
        // `sig` has no body, and the `[u8; 4]` semicolon must not end `long`'s signature.
        assert_eq!(fn_extents(&mask(src)), vec![(2, 8), (5, 6)]);
    }

    #[test]
    fn l2_requires_forbid() {
        let rep = check(&[file("storage", "crates/storage/src/lib.rs", "fn f() {}\n")]);
        assert!(rep.violations.iter().any(|v| v.rule == Rule::UnsafeForbid));
    }
}
