//! The committed suppression baseline (`xlint-baseline.json`), format v2.
//!
//! v1 was a flat per-rule count map (`{"panic": 4}`), which let a brand-new
//! violation hide behind an unrelated fix in the same rule. v2 pins each
//! finding individually:
//!
//! ```json
//! {
//!   "version": 2,
//!   "suppressions": [
//!     {"rule": "atomic_ordering", "file": "crates/…/cache.rs", "hash": "a1b2…"}
//!   ]
//! }
//! ```
//!
//! `hash` is FNV-1a 64 over `rule \0 file \0 reason \0 trimmed-code`, so a
//! suppression is invalidated when it moves to different code or its written
//! reason changes — line numbers are deliberately not part of the
//! fingerprint, so unrelated edits above a suppression don't churn the
//! baseline. Parsed and written by hand; the lint binary stays
//! dependency-free. Reading a v1 file is an error telling the user to
//! regenerate with `--update-baseline`.

use crate::rules::Suppression;
use std::path::Path;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    pub rule: String,
    pub file: String,
    pub hash: String,
}

#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<Entry>,
}

/// FNV-1a 64 of the suppression identity, as 16 lowercase hex chars.
pub fn fingerprint(s: &Suppression) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let path = s.path.to_string_lossy().replace('\\', "/");
    for part in [s.rule_name.as_str(), &path, &s.reason, &s.code] {
        for b in part.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator (a byte no field can contain).
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

pub fn entry_for(s: &Suppression) -> Entry {
    Entry {
        rule: s.rule_name.clone(),
        file: s.path.to_string_lossy().replace('\\', "/"),
        hash: fingerprint(s),
    }
}

impl Baseline {
    pub fn from_suppressions(sups: &[Suppression]) -> Baseline {
        let mut entries: Vec<Entry> = sups.iter().map(entry_for).collect();
        entries.sort();
        Baseline { entries }
    }

    pub fn read(path: &Path) -> std::io::Result<Baseline> {
        let text = std::fs::read_to_string(path)?;
        parse(&text).map_err(|why| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{why} in baseline file {}", path.display()),
            )
        })
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut sorted = self.entries.clone();
        sorted.sort();
        let mut out = String::from("{\n  \"version\": 2,\n  \"suppressions\": [\n");
        let n = sorted.len();
        for (i, e) in sorted.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"hash\": \"{}\"}}{}\n",
                e.rule,
                e.file,
                e.hash,
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out)
    }

    /// Live entries with no matching baseline entry (multiset difference) —
    /// these fail CI — and baseline entries no longer live (stale,
    /// informational).
    pub fn diff(&self, live: &[Entry]) -> (Vec<Entry>, Vec<Entry>) {
        let mut pool = self.entries.clone();
        let mut unbaselined = Vec::new();
        for e in live {
            match pool.iter().position(|p| p == e) {
                Some(i) => {
                    pool.swap_remove(i);
                }
                None => unbaselined.push(e.clone()),
            }
        }
        pool.sort();
        (unbaselined, pool)
    }
}

/// Parses the v2 format. A v1 flat count map is recognized and reported as
/// such so the error message can point at `--update-baseline`.
fn parse(text: &str) -> Result<Baseline, String> {
    let t = text.trim();
    let inner = t
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("malformed JSON object")?;
    if !inner.contains("\"version\"") {
        return Err(
            "v1 per-rule count format is no longer accepted; regenerate with \
             `cargo run -p xlint -- --update-baseline`"
                .to_string(),
        );
    }
    let vpos = inner.find("\"version\"").ok_or("missing version")?;
    let after = inner[vpos..].split_once(':').ok_or("malformed version")?.1;
    let vnum: String =
        after.trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
    if vnum != "2" {
        return Err(format!("unsupported baseline version {vnum:?}"));
    }
    let spos = inner.find("\"suppressions\"").ok_or("missing suppressions key")?;
    let arr = inner[spos..].split_once('[').ok_or("missing suppressions array")?.1;
    let arr = arr.rsplit_once(']').ok_or("unterminated suppressions array")?.0;
    let mut entries = Vec::new();
    let mut rest = arr;
    while let Some(open) = rest.find('{') {
        let close = rest[open..].find('}').ok_or("unterminated entry")? + open;
        let body = &rest[open + 1..close];
        let field = |key: &str| -> Result<String, String> {
            let kpos = body.find(&format!("\"{key}\"")).ok_or(format!("entry missing {key}"))?;
            let after = body[kpos..].split_once(':').ok_or("malformed entry")?.1.trim_start();
            let val = after.strip_prefix('"').ok_or("malformed entry value")?;
            let end = val.find('"').ok_or("unterminated entry value")?;
            Ok(val[..end].to_string())
        };
        entries.push(Entry { rule: field("rule")?, file: field("file")?, hash: field("hash")? });
        rest = &rest[close + 1..];
    }
    Ok(Baseline { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sup(rule: &str, file: &str, reason: &str, code: &str) -> Suppression {
        Suppression {
            rule_name: rule.to_string(),
            path: PathBuf::from(file),
            line: 7,
            reason: reason.to_string(),
            code: code.to_string(),
        }
    }

    #[test]
    fn roundtrip() {
        let sups = vec![
            sup("panic", "crates/a/src/x.rs", "infallible", "x.unwrap();"),
            sup("guard_drop", "crates/b/src/y.rs", "held across the scan", "drop(g);"),
        ];
        let b = Baseline::from_suppressions(&sups);
        let dir = std::env::temp_dir().join(format!("xlint-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("b.json");
        b.write(&p).unwrap();
        let back = Baseline::read(&p).unwrap();
        assert_eq!(back.entries, b.entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_code_and_reason_not_line() {
        let a = sup("panic", "f.rs", "why", "x.unwrap();");
        let mut b = sup("panic", "f.rs", "why", "x.unwrap();");
        b.line = 99;
        assert_eq!(fingerprint(&a), fingerprint(&b), "line is not part of the identity");
        let c = sup("panic", "f.rs", "other why", "x.unwrap();");
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let d = sup("panic", "f.rs", "why", "y.unwrap();");
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }

    #[test]
    fn diff_is_a_multiset() {
        let s1 = sup("panic", "f.rs", "w", "a();");
        let s2 = sup("panic", "f.rs", "w", "a();"); // identical twin
        let base = Baseline::from_suppressions(&[s1]);
        let live = vec![entry_for(&s2), entry_for(&s2)];
        let (unbase, stale) = base.diff(&live);
        assert_eq!(unbase.len(), 1, "second identical suppression is NOT covered");
        assert!(stale.is_empty());
    }

    #[test]
    fn v1_is_rejected_with_migration_hint() {
        let err = parse("{\"panic\": 4}").unwrap_err();
        assert!(err.contains("--update-baseline"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"version\": 3, \"suppressions\": []}").is_err());
        assert!(parse("{\"version\": 2, \"suppressions\": []}").is_ok());
    }
}
