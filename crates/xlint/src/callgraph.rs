//! Function-granularity call-graph extraction for the L5 blocking-in-actor
//! pass (and function-extent tracking reused by L6 guard-drop).
//!
//! The extractor walks masked source (see [`crate::lexer`]) once per file,
//! tracking brace depth to give every `fn` a body extent, and records for
//! each function:
//!
//! * the set of callee *names* (identifiers directly followed by `(`, or by
//!   a `::<…>` turbofish then `(`) — resolution is by bare name against
//!   every workspace `fn` of that name, deliberately path-insensitive: a
//!   lightweight over-approximation in the spirit of "flag anything that
//!   *can* park a pool worker",
//! * direct **blocking primitive** sites ([`BLOCKING_PRIMITIVES`]): channel
//!   `recv`/`send`, condvar waits, `thread::sleep`, thread `join`, and file
//!   I/O,
//! * directives: `// xlint: actor_entry` on the `fn` line marks a
//!   cooperative entry point (seed of the reachability walk);
//!   `// xlint: allow(blocking, "why")` on the `fn` line marks the whole
//!   function an audited non-blocking boundary (its body and callees are
//!   not walked); the same directive on a primitive site suppresses just
//!   that site.
//!
//! Ubiquitous constructor/trait names ([`SKIP_CALL_NAMES`]) are excluded
//! from graph edges: `new`/`clone`/`fmt`/… resolve to half the workspace
//! and none of them run on the per-morsel path, so following them buries
//! real findings in name-collision noise.

use crate::lexer::MaskedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Blocking primitives seeding the L5 walk: anything that can park an OS
/// thread. `(pattern, human label)`; patterns match masked code, so string
/// literals and comments never trip them.
pub const BLOCKING_PRIMITIVES: [(&str, &str); 20] = [
    (".recv()", "channel recv"),
    (".recv_timeout(", "channel recv_timeout"),
    (".send(", "channel send (blocks when bounded)"),
    (".send_timeout(", "channel send_timeout"),
    (".select_timeout(", "channel select_timeout"),
    (".wait(", "condvar/barrier wait"),
    (".wait_for(", "condvar wait_for"),
    (".wait_while(", "condvar wait_while"),
    (".wait_timeout(", "condvar wait_timeout"),
    ("thread::sleep(", "thread::sleep"),
    (".join()", "thread join"),
    ("File::open(", "file open"),
    ("File::create(", "file create"),
    ("OpenOptions::new(", "file open (OpenOptions)"),
    ("fs::", "std::fs call"),
    (".read_exact", "file read"),
    (".write_all", "file write"),
    (".sync_all()", "fsync"),
    (".sync_data()", "fdatasync"),
    (".read_to_string(", "file read_to_string"),
];

/// Call names never followed as graph edges: ubiquitous constructor and
/// trait-method names that resolve to dozens of unrelated workspace `fn`s
/// (none of which run on the morsel path) and would drown the walk in
/// name-collision noise. A blocking call *inside* one of these functions is
/// still caught whenever the function is reached under any other name.
pub const SKIP_CALL_NAMES: [&str; 12] = [
    "new", "default", "clone", "drop", "fmt", "from", "into", "eq", "cmp", "hash", "len",
    "is_empty",
];

/// One direct blocking-primitive site inside a function body.
#[derive(Debug)]
pub struct BlockSite {
    /// 0-based line index.
    pub line: usize,
    /// Human label from [`BLOCKING_PRIMITIVES`].
    pub what: &'static str,
    /// `Some(reason)` when the line carries `// xlint: allow(blocking, …)`.
    pub allowed: Option<String>,
}

/// One extracted function definition.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// Index into the scanned file list.
    pub file: usize,
    /// 0-based line of the `fn` keyword.
    pub decl_line: usize,
    /// 0-based line of the closing `}` (inclusive body extent).
    pub body_end: usize,
    pub calls: BTreeSet<String>,
    pub blocking: Vec<BlockSite>,
    /// `// xlint: allow(blocking, …)` on the `fn` line: audited boundary,
    /// not walked.
    pub opaque: bool,
    /// Reason attached to the `opaque` directive.
    pub opaque_reason: String,
    /// `// xlint: actor_entry` on the `fn` line.
    pub entry: bool,
}

/// Extracts every non-test function of `m` (file index `file_idx`).
pub fn extract_fns(file_idx: usize, m: &MaskedFile) -> Vec<FnDef> {
    let mut defs: Vec<FnDef> = Vec::new();
    // (def index, depth at which its body opened).
    let mut stack: Vec<(usize, i32)> = Vec::new();
    let mut depth: i32 = 0;
    // A `fn` seen but whose body `{` has not arrived yet:
    // (name, decl line, entry, opaque, opaque reason).
    let mut pending: Option<(String, usize, bool, bool, String)> = None;
    // Paren/bracket nesting inside a pending signature (so `[u8; 4]` and
    // default-free arg lists don't end the signature at an inner `;`).
    let mut sig_nest: i32 = 0;

    for (i, l) in m.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let code = &l.code;
        // Directives for a `fn` declared on this line.
        let entry_here = has_directive(&l.comments, "actor_entry");
        let allow_here = crate::rules::allow_directive(&l.comments)
            .filter(|(rule, _)| rule == "blocking")
            .map(|(_, reason)| reason);

        // Attribute calls and blocking sites to the innermost open fn.
        if let Some(&(di, _)) = stack.last() {
            for name in call_names(code) {
                defs[di].calls.insert(name);
            }
            for (pat, what) in BLOCKING_PRIMITIVES {
                if find_primitive(code, pat) {
                    defs[di].blocking.push(BlockSite {
                        line: i,
                        what,
                        allowed: allow_here.clone(),
                    });
                }
            }
        }

        let bytes = code.as_bytes();
        let mut ci = 0usize;
        while ci < bytes.len() {
            let c = bytes[ci];
            // `fn ` keyword at a word boundary starts a pending definition.
            if c == b'f'
                && code[ci..].starts_with("fn ")
                && (ci == 0 || !is_ident(bytes[ci - 1]))
            {
                let rest = &code[ci + 3..];
                let name: String =
                    rest.trim_start().chars().take_while(|ch| ch.is_alphanumeric() || *ch == '_').collect();
                if !name.is_empty() {
                    pending = Some((
                        name,
                        i,
                        entry_here,
                        allow_here.is_some(),
                        allow_here.clone().unwrap_or_default(),
                    ));
                    sig_nest = 0;
                }
                ci += 3;
                continue;
            }
            match c {
                b'(' | b'[' if pending.is_some() => sig_nest += 1,
                b')' | b']' if pending.is_some() => sig_nest -= 1,
                // Trait/extern declaration without a body.
                b';' if sig_nest == 0 => pending = None,
                b'{' => {
                    depth += 1;
                    if let Some((name, decl, entry, opaque, reason)) = pending.take() {
                        defs.push(FnDef {
                            name,
                            file: file_idx,
                            decl_line: decl,
                            body_end: i,
                            calls: BTreeSet::new(),
                            blocking: Vec::new(),
                            opaque,
                            opaque_reason: reason,
                            entry,
                        });
                        stack.push((defs.len() - 1, depth));
                    }
                }
                b'}' => {
                    if let Some(&(di, d)) = stack.last() {
                        if depth == d {
                            defs[di].body_end = i;
                            stack.pop();
                        }
                    }
                    depth -= 1;
                }
                _ => {}
            }
            ci += 1;
        }
    }
    // Unterminated fns (truncated file): close at EOF.
    let last = m.lines.len().saturating_sub(1);
    for (di, _) in stack {
        defs[di].body_end = last;
    }
    defs
}

/// True when `comments` carry a bare `// xlint: <name>` directive.
fn has_directive(comments: &[String], name: &str) -> bool {
    comments.iter().any(|c| {
        c.trim()
            .strip_prefix("xlint:")
            .map(|rest| rest.trim() == name)
            .unwrap_or(false)
    })
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when `pat` occurs in `code` at a position where it is a real call
/// (for patterns starting with an identifier char, the previous byte must
/// not be part of an identifier).
fn find_primitive(code: &str, pat: &str) -> bool {
    let first_is_ident = pat.as_bytes().first().map(|&b| is_ident(b)).unwrap_or(false);
    let mut start = 0usize;
    while let Some(p) = code[start..].find(pat) {
        let abs = start + p;
        if !first_is_ident || abs == 0 || !is_ident(code.as_bytes()[abs - 1]) {
            return true;
        }
        start = abs + 1;
    }
    false
}

/// Lower-case identifiers directly followed by `(` (or a `::<…>` turbofish
/// then `(`) in one masked line — the callee-name set.
fn call_names(code: &str) -> Vec<String> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if is_ident(b[i]) && (i == 0 || !is_ident(b[i - 1])) {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            let name = &code[start..i];
            // Skip keywords, macros (`!` follows), and Uppercase constructors
            // (enum variants / tuple structs / `Type(`).
            let first = name.as_bytes()[0];
            if first.is_ascii_uppercase() || first.is_ascii_digit() || is_keyword(name) {
                continue;
            }
            let mut j = i;
            // Turbofish: `collect::<Vec<_>>(…)`.
            if code[j..].starts_with("::<") {
                let mut angle = 0i32;
                while j < b.len() {
                    match b[j] {
                        b'<' => angle += 1,
                        b'>' => {
                            angle -= 1;
                            if angle == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            if j < b.len() && b[j] == b'(' {
                out.push(name.to_string());
            }
            continue;
        }
        i += 1;
    }
    out
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "in"
            | "as"
            | "move"
            | "let"
            | "mut"
            | "ref"
            | "fn"
            | "unsafe"
            | "dyn"
            | "impl"
            | "where"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "break"
            | "continue"
    )
}

/// A blocking finding of the reachability walk.
pub struct Reached {
    /// Index of the [`FnDef`] containing the site.
    pub def: usize,
    /// Index into that def's `blocking` vec.
    pub site: usize,
    /// Entry-to-site function-name chain (entry first).
    pub chain: Vec<String>,
}

/// Walks the call graph from every `entry` def; returns each blocking site
/// of a reached, non-opaque function together with a witness chain, plus
/// the set of opaque defs that were reached (their directives count as
/// suppressions).
pub fn walk(defs: &[FnDef]) -> (Vec<Reached>, Vec<usize>) {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut opaque_hit: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for (i, d) in defs.iter().enumerate() {
        if d.entry && !d.opaque && visited.insert(i) {
            queue.push(i);
        }
    }
    let mut qi = 0usize;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        for callee in &defs[u].calls {
            if SKIP_CALL_NAMES.contains(&callee.as_str()) {
                continue;
            }
            for &v in by_name.get(callee.as_str()).map(|v| v.as_slice()).unwrap_or(&[]) {
                if defs[v].opaque {
                    opaque_hit.insert(v);
                    continue;
                }
                if visited.insert(v) {
                    parent.insert(v, u);
                    queue.push(v);
                }
            }
        }
    }
    let mut out = Vec::new();
    for &u in &visited {
        for (si, _) in defs[u].blocking.iter().enumerate() {
            let mut chain = vec![defs[u].name.clone()];
            let mut cur = u;
            while let Some(&p) = parent.get(&cur) {
                chain.push(defs[p].name.clone());
                cur = p;
            }
            chain.reverse();
            out.push(Reached { def: u, site: si, chain });
        }
    }
    (out, opaque_hit.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;

    fn defs_of(src: &str) -> Vec<FnDef> {
        extract_fns(0, &mask(src))
    }

    #[test]
    fn extracts_fns_with_extents_and_calls() {
        let src = "fn a() {\n    helper(1);\n    x.method();\n}\nfn helper(v: u8) {\n    inner();\n}\n";
        let d = defs_of(src);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].name, "a");
        assert_eq!((d[0].decl_line, d[0].body_end), (0, 3));
        assert!(d[0].calls.contains("helper") && d[0].calls.contains("method"));
        assert_eq!(d[1].name, "helper");
        assert!(d[1].calls.contains("inner"));
    }

    #[test]
    fn nested_fn_attribution() {
        let src = "fn outer() {\n    fn inner() {\n        leaf();\n    }\n    top();\n}\n";
        let d = defs_of(src);
        assert_eq!(d.len(), 2);
        let outer = d.iter().find(|f| f.name == "outer").unwrap();
        let inner = d.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner.calls.contains("leaf"));
        assert!(outer.calls.contains("top") && !outer.calls.contains("leaf"));
    }

    #[test]
    fn trait_decl_without_body_is_not_a_def() {
        let src = "trait T {\n    fn sig(x: [u8; 4]) -> u8;\n    fn has_body(&self) {\n        work();\n    }\n}\n";
        let d = defs_of(src);
        // `sig` has no body; the `[u8; 4]` semicolon must not confuse it.
        assert_eq!(d.len(), 1, "{:?}", d.iter().map(|f| &f.name).collect::<Vec<_>>());
        assert_eq!(d[0].name, "has_body");
    }

    #[test]
    fn multiline_signature_binds_to_following_body() {
        let src = "fn long(\n    a: u8,\n    b: u8,\n) -> u8 {\n    calc(a, b)\n}\n";
        let d = defs_of(src);
        assert_eq!(d.len(), 1);
        assert!(d[0].calls.contains("calc"));
    }

    #[test]
    fn blocking_sites_and_suppressions_recorded() {
        let src = "fn f(rx: &R) {\n    rx.recv_timeout(D);\n    rx.recv(); // xlint: allow(blocking, \"drain on teardown\")\n}\n";
        let d = defs_of(src);
        assert_eq!(d[0].blocking.len(), 2);
        assert!(d[0].blocking[0].allowed.is_none());
        assert_eq!(d[0].blocking[1].allowed.as_deref(), Some("drain on teardown"));
    }

    #[test]
    fn indirect_blocking_is_reached_through_the_graph() {
        // actor -> helper -> recv: the classic transitive case the lint is
        // for. The entry itself has no primitive.
        let src = "fn step(h: &H) { // xlint: actor_entry\n    helper(h);\n}\nfn helper(h: &H) {\n    deeper(h);\n}\nfn deeper(h: &H) {\n    h.rx.recv();\n}\n";
        let d = defs_of(src);
        let (reached, _) = walk(&d);
        assert_eq!(reached.len(), 1, "exactly the one recv site");
        let r = &reached[0];
        assert_eq!(d[r.def].name, "deeper");
        assert_eq!(r.chain, vec!["step", "helper", "deeper"]);
    }

    #[test]
    fn opaque_boundary_stops_the_walk() {
        let src = "fn step(h: &H) { // xlint: actor_entry\n    audited(h);\n}\nfn audited(h: &H) { // xlint: allow(blocking, \"bounded 1ms park, measured\")\n    h.rx.recv();\n}\n";
        let d = defs_of(src);
        let (reached, opaque) = walk(&d);
        assert!(reached.is_empty(), "opaque fn body must not be walked");
        assert_eq!(opaque.len(), 1);
        assert_eq!(d[opaque[0]].name, "audited");
    }

    #[test]
    fn skip_names_are_not_followed() {
        let src = "fn step() { // xlint: actor_entry\n    let x = Thing::new();\n}\nfn new() -> u8 {\n    std::fs::read(\"x\");\n    0\n}\n";
        let d = defs_of(src);
        let (reached, _) = walk(&d);
        assert!(reached.is_empty(), "`new` resolves everywhere; excluded by stoplist");
    }

    #[test]
    fn call_name_extraction_shapes() {
        let names = call_names("a.method(x) + helper(y) - NotCalled(z) + mac!(w) + c.collect::<Vec<_>>()");
        assert!(names.contains(&"method".into()));
        assert!(names.contains(&"helper".into()));
        assert!(names.contains(&"collect".into()));
        assert!(!names.iter().any(|n| n == "mac"));
    }
}
