//! A minimal JSON document builder.
//!
//! The workspace has no serde; this is just enough to emit metric
//! snapshots and profile trees. Numbers keep their integer width (no
//! float round-trip for u64 counters).

use std::fmt::Write as _;

/// An owned JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object of `fields`, in the order given.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Infinity
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    escape_into(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::U64(1)),
            ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c".into(), Json::str("x\"y\n")),
        ]);
        assert_eq!(doc.render(), r#"{"a":1,"b":[true,null],"c":"x\"y\n"}"#);
    }

    #[test]
    fn pretty_rendering_is_valid_and_indented() {
        let doc = Json::Obj(vec![("k".into(), Json::Arr(vec![Json::U64(7)]))]);
        let s = doc.render_pretty();
        assert!(s.contains("\n  \"k\": [\n    7\n  ]\n"), "{s}");
    }

    /// A float renders as the shortest decimal text that reads back as the
    /// same `f64`, never in exponent form: a regenerated report differs from
    /// the committed one where a value does, not where a format does.
    #[test]
    fn a_float_renders_as_the_shortest_text_that_reads_back() {
        for (x, text) in [
            (1.0, "1"),
            (-0.0, "-0"),
            (0.5, "0.5"),
            (117.886, "117.886"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
            (1e21, "1000000000000000000000"),
            (22910.751, "22910.751"),
        ] {
            assert_eq!(Json::F64(x).render(), text);
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{text} reads back");
        }
        assert_eq!(Json::obj([("a", Json::F64(2.25))]).render_pretty(), "{\n  \"a\": 2.25\n}\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(1.5).render(), "1.5");
    }
}
