//! Text parser for ADM's extended-JSON syntax.
//!
//! Accepts everything JSON accepts, plus the ADM extensions visible in paper
//! Figure 3(d):
//!
//! * multiset constructors `{{ v1, v2, ... }}`;
//! * typed literals as constructor calls: `datetime("2017-01-01T00:00:00")`,
//!   `date("2017-01-20")`, `time("13:00:00")`, `duration("P30D")`,
//!   `point("3.0,4.0")`, `rectangle("0,0 5,5")`, `uuid("...")`;
//! * unquoted field names in objects (identifier-like), as SQL++ allows;
//! * `missing` as a literal.
//!
//! The parser is a single-pass recursive-descent scanner over bytes with
//! byte-offset error reporting.

use crate::error::{AdmError, Result};
use crate::spatial::{Point, Rectangle};
use crate::temporal::{self, Duration};
use crate::value::{Object, Value, MAX_DEPTH};

/// Parses a complete ADM value from `input`, requiring all input be consumed.
pub fn parse_value(input: &str) -> Result<Value> {
    let mut p = Parser::new(input);
    let v = p.parse_value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(AdmError::parse(p.pos, "trailing characters after value"));
    }
    Ok(v)
}

/// Parses a sequence of whitespace/newline-separated ADM values (the format of
/// one-object-per-line data files used by `LOAD DATASET`).
pub fn parse_many(input: &str) -> Result<Vec<Value>> {
    let mut p = Parser::new(input);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            break;
        }
        out.push(p.parse_value()?);
    }
    Ok(out)
}

pub(crate) struct Parser<'a> {
    pub(crate) input: &'a str,
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
    /// Collections and objects open around the value being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0 }
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(AdmError::parse(
                self.pos,
                format!("expected {:?}, found {:?}", b as char, self.peek().map(|c| c as char)),
            ))
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    pub(crate) fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(AdmError::parse(self.pos, "unexpected end of input")),
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(AdmError::parse(self.pos, format!("values nest deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let nested = if self.starts_with("{{") {
                    self.parse_multiset()
                } else if self.starts_with("{") {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.parse_word(),
            Some(c) => Err(AdmError::parse(self.pos, format!("unexpected character {:?}", c as char))),
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut obj = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(obj));
        }
        loop {
            self.skip_ws();
            let key = match self.peek() {
                Some(b'"') | Some(b'\'') => self.parse_string()?,
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.parse_identifier(),
                other => {
                    return Err(AdmError::parse(
                        self.pos,
                        format!("expected field name, found {:?}", other.map(|c| c as char)),
                    ))
                }
            };
            self.expect(b':')?;
            let val = self.parse_value()?;
            obj.set(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(AdmError::parse(
                        self.pos,
                        format!("expected ',' or '}}', found {:?}", other.map(|c| c as char)),
                    ))
                }
            }
        }
        Ok(Value::Object(obj))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                other => {
                    return Err(AdmError::parse(
                        self.pos,
                        format!("expected ',' or ']', found {:?}", other.map(|c| c as char)),
                    ))
                }
            }
        }
        Ok(Value::Array(items))
    }

    fn parse_multiset(&mut self) -> Result<Value> {
        // consume "{{"
        self.pos += 2;
        let mut items = Vec::new();
        self.skip_ws();
        if self.starts_with("}}") {
            self.pos += 2;
            return Ok(Value::Multiset(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            if self.starts_with("}}") {
                self.pos += 2;
                break;
            }
            match self.bump() {
                Some(b',') => continue,
                other => {
                    return Err(AdmError::parse(
                        self.pos,
                        format!("expected ',' or '}}}}', found {:?}", other.map(|c| c as char)),
                    ))
                }
            }
        }
        Ok(Value::Multiset(items))
    }

    pub(crate) fn parse_string(&mut self) -> Result<String> {
        self.skip_ws();
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            other => {
                return Err(AdmError::parse(
                    self.pos,
                    format!("expected string, found {:?}", other.map(|c| c as char)),
                ))
            }
        };
        let mut out = String::new();
        loop {
            // the bytes up to the next quote or backslash, copied as one
            // slice: both are ASCII, so the run ends on a character boundary
            let run = self.bytes[self.pos..].iter().position(|&b| b == quote || b == b'\\');
            let end = run.map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.input[self.pos..end]);
            self.pos = end;
            match self.bump() {
                None => return Err(AdmError::parse(self.pos, "unterminated string")),
                Some(q) if q == quote => break,
                Some(_) => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\'') => out.push('\''),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .input
                            .get(self.pos..self.pos + 4)
                            .ok_or_else(|| AdmError::parse(self.pos, "truncated \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| AdmError::parse(self.pos, "bad \\u escape"))?;
                        self.pos += 4;
                        out.push(
                            char::from_u32(cp)
                                .ok_or_else(|| AdmError::parse(self.pos, "bad codepoint"))?,
                        );
                    }
                    other => {
                        return Err(AdmError::parse(
                            self.pos,
                            format!("bad escape {:?}", other.map(|c| c as char)),
                        ))
                    }
                },
            }
        }
        Ok(out)
    }

    fn parse_identifier(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        self.input[start..self.pos].to_owned()
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'+' | b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Double)
                .map_err(|_| AdmError::parse(start, format!("bad number {text:?}")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Double))
                .map_err(|_| AdmError::parse(start, format!("bad number {text:?}")))
        }
    }

    /// Keywords (`true`, `null`, `missing`, ...) and constructor calls
    /// (`datetime("...")`).
    fn parse_word(&mut self) -> Result<Value> {
        let start = self.pos;
        let word = self.parse_identifier();
        self.skip_ws();
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let arg = self.parse_string()?;
            self.expect(b')')?;
            return constructor(&word, &arg, start);
        }
        match word.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "null" => Ok(Value::Null),
            "missing" => Ok(Value::Missing),
            other => Err(AdmError::parse(start, format!("unknown literal {other:?}"))),
        }
    }
}

/// Evaluates a typed-literal constructor such as `datetime("...")`.
pub fn constructor(name: &str, arg: &str, offset: usize) -> Result<Value> {
    match name {
        "datetime" => Ok(Value::DateTime(temporal::parse_datetime(arg)?)),
        "date" => Ok(Value::Date(temporal::parse_date(arg)?)),
        "time" => Ok(Value::Time(temporal::parse_time(arg)?)),
        "duration" => Ok(Value::Duration(Duration::parse(arg)?)),
        "point" => {
            let (x, y) = arg
                .split_once(',')
                .ok_or_else(|| AdmError::parse(offset, format!("bad point literal {arg:?}")))?;
            let px: f64 = x.trim().parse().map_err(|_| AdmError::parse(offset, "bad point x"))?;
            let py: f64 = y.trim().parse().map_err(|_| AdmError::parse(offset, "bad point y"))?;
            if !px.is_finite() || !py.is_finite() {
                return Err(AdmError::parse(offset, "point coordinates must be finite"));
            }
            Ok(Value::Point(Point::new(px, py)))
        }
        "rectangle" => {
            let (a, b) = arg
                .split_once(' ')
                .ok_or_else(|| AdmError::parse(offset, format!("bad rectangle literal {arg:?}")))?;
            let pa = parse_point_pair(a, offset)?;
            let pb = parse_point_pair(b, offset)?;
            Ok(Value::Rectangle(Rectangle::new(pa, pb)))
        }
        "uuid" => {
            let hex: String = arg.chars().filter(|c| *c != '-').collect();
            if hex.len() != 32 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(AdmError::parse(offset, format!("bad uuid literal {arg:?}")));
            }
            let mut out = [0u8; 16];
            for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
                out[i] = u8::from_str_radix(std::str::from_utf8(chunk).unwrap(), 16).unwrap();
            }
            Ok(Value::Uuid(out))
        }
        "hex" | "binary" => {
            if !arg.len().is_multiple_of(2) || !arg.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(AdmError::parse(offset, format!("bad hex literal {arg:?}")));
            }
            let bytes = arg
                .as_bytes()
                .chunks(2)
                .map(|c| u8::from_str_radix(std::str::from_utf8(c).unwrap(), 16).unwrap())
                .collect();
            Ok(Value::Binary(bytes))
        }
        "string" => Ok(Value::String(arg.to_owned())),
        "int" | "int64" | "int32" | "int8" | "int16" => arg
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| AdmError::parse(offset, format!("bad int literal {arg:?}"))),
        "double" | "float" => arg
            .trim()
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| AdmError::parse(offset, format!("bad double literal {arg:?}"))),
        other => Err(AdmError::parse(offset, format!("unknown constructor {other:?}"))),
    }
}

fn parse_point_pair(s: &str, offset: usize) -> Result<Point> {
    let (x, y) = s
        .split_once(',')
        .ok_or_else(|| AdmError::parse(offset, format!("bad point pair {s:?}")))?;
    let px: f64 = x.trim().parse().map_err(|_| AdmError::parse(offset, "bad x"))?;
    let py: f64 = y.trim().parse().map_err(|_| AdmError::parse(offset, "bad y"))?;
    Ok(Point::new(px, py))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_json() {
        let v = parse_value(r#"{"a": 1, "b": [true, null, 2.5], "c": "x\ny"}"#).unwrap();
        assert_eq!(v.field("a"), &Value::Int(1));
        assert_eq!(v.field("b").index(2), &Value::Double(2.5));
        assert_eq!(v.field("c"), &Value::from("x\ny"));
    }

    #[test]
    fn figure3d_upsert_record() {
        // The record from Figure 3(d) of the paper (with its typed literals).
        let text = r#"{
            "id": 667,
            "alias": "dfrump",
            "name": "DonaldFrump",
            "nickname": "Frumpkin",
            "userSince": datetime("2017-01-01T00:00:00"),
            "friendIds": {{ }},
            "employment": [{"organizationName": "USA", "startDate": date("2017-01-20")}],
            "gender": "M"
        }"#;
        let v = parse_value(text).unwrap();
        assert_eq!(v.field("id"), &Value::Int(667));
        assert!(matches!(v.field("userSince"), Value::DateTime(_)));
        assert_eq!(v.field("friendIds"), &Value::Multiset(vec![]));
        let emp = v.field("employment").index(0);
        assert!(matches!(emp.field("startDate"), Value::Date(_)));
    }

    #[test]
    fn multiset_with_items() {
        let v = parse_value("{{ 1, 2, 2, 3 }}").unwrap();
        assert_eq!(
            v,
            Value::Multiset(vec![Value::Int(1), Value::Int(2), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn typed_literals() {
        assert!(matches!(parse_value(r#"point("3.0,4.0")"#).unwrap(), Value::Point(_)));
        assert!(matches!(
            parse_value(r#"rectangle("0,0 5.5,5.5")"#).unwrap(),
            Value::Rectangle(_)
        ));
        assert!(matches!(parse_value(r#"duration("P30D")"#).unwrap(), Value::Duration(_)));
        let u = parse_value(r#"uuid("123e4567-e89b-12d3-a456-426614174000")"#).unwrap();
        assert!(matches!(u, Value::Uuid(_)));
    }

    #[test]
    fn unquoted_field_names() {
        let v = parse_value("{id: 1, alias: \"x\"}").unwrap();
        assert_eq!(v.field("id"), &Value::Int(1));
    }

    #[test]
    fn missing_literal_and_errors() {
        assert_eq!(parse_value("missing").unwrap(), Value::Missing);
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,").is_err());
        assert!(parse_value("bogus").is_err());
        assert!(parse_value("1 2").is_err(), "trailing content rejected");
        assert!(parse_value(r#"datetime("not-a-date")"#).is_err());
    }

    #[test]
    fn parse_many_lines() {
        let vs = parse_many("{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n").unwrap();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[2].field("a"), &Value::Int(3));
        assert!(parse_many("{\"a\":1} garbage").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(parse_value("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse_value("3.25").unwrap(), Value::Double(3.25));
        assert_eq!(parse_value("1e3").unwrap(), Value::Double(1000.0));
        // i64 overflow falls back to double
        assert!(matches!(parse_value("99999999999999999999").unwrap(), Value::Double(_)));
    }

    #[test]
    fn escapes_anywhere_in_a_run_of_plain_bytes() {
        for (text, want) in [
            (r#""\"start""#, "\"start"),
            (r#""mid\tdle""#, "mid\tdle"),
            (r#""end\n""#, "end\n"),
            (r#""\\""#, "\\"),
            (r#""éé→\"ü""#, "éé→\"ü"),
            (r#""Aé\/""#, "Aé/"),
        ] {
            assert_eq!(parse_value(text).unwrap(), Value::from(want), "{text}");
        }
        // a field name in single quotes ends at its own quote
        assert_eq!(parse_value(r#"{'it\'s "é"': 1}"#).unwrap().field("it's \"é\""), &Value::Int(1));
        // errors stay where they were found
        let offset = |text: &str| match parse_value(text) {
            Err(AdmError::Parse { offset, message }) => (offset, message),
            other => panic!("{text}: {other:?}"),
        };
        assert_eq!(offset(r#""abc"#), (4, "unterminated string".into()));
        assert_eq!(offset(r#""é\"#).0, 4, "a backslash that ends the input");
        assert_eq!(offset(r#""a\uZZZZb""#), (4, "bad \\u escape".into()));
        assert_eq!(offset(r#""\u12"#), (3, "truncated \\u escape".into()));
        assert_eq!(offset(r#""ab\qc""#).0, 5, "an escape no string has");
    }

    #[test]
    fn unicode_strings() {
        let v = parse_value(r#""héllo → wörld""#).unwrap();
        assert_eq!(v, Value::from("héllo → wörld"));
        let v = parse_value(r#""Aé""#).unwrap();
        assert_eq!(v, Value::from("Aé"));
    }
}
