//! Compact binary serialization of [`Value`]s — the on-page format used by the
//! storage layer (LSM components, WAL records) and by Hyracks when spilling
//! frames to disk.
//!
//! Layout: one tag byte followed by a fixed or length-prefixed payload.
//! Collections are count-prefixed; object fields carry their names inline
//! (this is exactly what makes *undeclared open fields* cost extra space —
//! experiment E10). Composite index keys are encoded with [`encode_key`] /
//! [`compare_keys`], which order byte streams identically to element-wise
//! [`crate::compare::total_cmp`].

use crate::error::{AdmError, Result};
use crate::spatial::{Point, Rectangle};
use crate::temporal::Duration;
use crate::value::{Object, Value};
use std::cmp::Ordering;

// Tag bytes. Distinct per concrete type (Int vs Double), unlike TypeTag.
const T_MISSING: u8 = 0;
const T_NULL: u8 = 1;
const T_BOOL: u8 = 2;
const T_INT: u8 = 3;
const T_DOUBLE: u8 = 4;
const T_STRING: u8 = 5;
const T_DATE: u8 = 6;
const T_TIME: u8 = 7;
const T_DATETIME: u8 = 8;
const T_DURATION: u8 = 9;
const T_POINT: u8 = 10;
const T_RECTANGLE: u8 = 11;
const T_UUID: u8 = 12;
const T_BINARY: u8 = 13;
const T_ARRAY: u8 = 14;
const T_MULTISET: u8 = 15;
const T_OBJECT: u8 = 16;

/// Serializes a value, appending to `out`.
pub fn encode_into(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Missing => out.push(T_MISSING),
        Value::Null => out.push(T_NULL),
        Value::Bool(b) => {
            out.push(T_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(T_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(T_DOUBLE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::String(s) => {
            out.push(T_STRING);
            put_len(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(T_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Time(t) => {
            out.push(T_TIME);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Value::DateTime(t) => {
            out.push(T_DATETIME);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Value::Duration(d) => {
            out.push(T_DURATION);
            out.extend_from_slice(&d.months.to_le_bytes());
            out.extend_from_slice(&d.millis.to_le_bytes());
        }
        Value::Point(p) => {
            out.push(T_POINT);
            out.extend_from_slice(&p.x.to_le_bytes());
            out.extend_from_slice(&p.y.to_le_bytes());
        }
        Value::Rectangle(r) => {
            out.push(T_RECTANGLE);
            out.extend_from_slice(&r.min.x.to_le_bytes());
            out.extend_from_slice(&r.min.y.to_le_bytes());
            out.extend_from_slice(&r.max.x.to_le_bytes());
            out.extend_from_slice(&r.max.y.to_le_bytes());
        }
        Value::Uuid(u) => {
            out.push(T_UUID);
            out.extend_from_slice(u);
        }
        Value::Binary(b) => {
            out.push(T_BINARY);
            put_len(out, b.len());
            out.extend_from_slice(b);
        }
        Value::Array(items) => {
            out.push(T_ARRAY);
            put_len(out, items.len());
            for i in items {
                encode_into(i, out);
            }
        }
        Value::Multiset(items) => {
            out.push(T_MULTISET);
            put_len(out, items.len());
            for i in items {
                encode_into(i, out);
            }
        }
        Value::Object(o) => {
            out.push(T_OBJECT);
            put_len(out, o.len());
            for (k, val) in o.iter() {
                put_len(out, k.len());
                out.extend_from_slice(k.as_bytes());
                encode_into(val, out);
            }
        }
    }
}

/// Serializes a value to a fresh buffer.
pub fn encode(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_into(v, &mut out);
    out
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Streaming decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when all bytes are consumed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// The next `n` raw bytes (they outlive the decoder: a slice of its input).
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(AdmError::Serde(format!(
                "truncated input: need {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn len(&mut self) -> Result<usize> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()) as usize)
    }

    fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Steps over one value without building it: what a reader that wants
    /// some of a record's fields does with the others.
    pub fn skip_value(&mut self) -> Result<()> {
        let n = match self.u8()? {
            T_MISSING | T_NULL => 0,
            T_BOOL => 1,
            T_DATE | T_TIME => 4,
            T_INT | T_DOUBLE | T_DATETIME => 8,
            T_DURATION => 12,
            T_POINT | T_UUID => 16,
            T_RECTANGLE => 32,
            T_STRING | T_BINARY => self.len()?,
            T_ARRAY | T_MULTISET => {
                for _ in 0..self.len()? {
                    self.skip_value()?;
                }
                0
            }
            T_OBJECT => {
                for _ in 0..self.len()? {
                    let klen = self.len()?;
                    self.take(klen)?;
                    self.skip_value()?;
                }
                0
            }
            other => return Err(AdmError::Serde(format!("unknown tag byte {other}"))),
        };
        self.take(n)?;
        Ok(())
    }

    /// The fields of an object, from after its tag: those named in `fields`,
    /// all of them when `fields` is empty. Stops reading once every name in
    /// `fields` is found.
    fn object(&mut self, fields: &[String]) -> Result<Object> {
        let n = self.len()?;
        let mut o = Object::with_capacity(if fields.is_empty() { n.min(1 << 16) } else { fields.len() });
        for _ in 0..n {
            let klen = self.len()?;
            let kbytes = self.take(klen)?;
            if !fields.is_empty() && !fields.iter().any(|f| f.as_bytes() == kbytes) {
                self.skip_value()?;
                continue;
            }
            let key = std::str::from_utf8(kbytes)
                .map_err(|_| AdmError::Serde("invalid UTF-8 in field name".into()))?
                .to_owned();
            o.set(key, self.value()?);
            if o.len() == fields.len() {
                break;
            }
        }
        Ok(o)
    }

    /// Decodes one value.
    pub fn value(&mut self) -> Result<Value> {
        let tag = self.u8()?;
        Ok(match tag {
            T_MISSING => Value::Missing,
            T_NULL => Value::Null,
            T_BOOL => Value::Bool(self.u8()? != 0),
            T_INT => Value::Int(self.i64()?),
            T_DOUBLE => Value::Double(self.f64()?),
            T_STRING => {
                let n = self.len()?;
                let bytes = self.take(n)?;
                Value::String(
                    std::str::from_utf8(bytes)
                        .map_err(|_| AdmError::Serde("invalid UTF-8 in string".into()))?
                        .to_owned(),
                )
            }
            T_DATE => Value::Date(self.i32()?),
            T_TIME => Value::Time(self.i32()?),
            T_DATETIME => Value::DateTime(self.i64()?),
            T_DURATION => Value::Duration(Duration { months: self.i32()?, millis: self.i64()? }),
            T_POINT => Value::Point(Point::new(self.f64()?, self.f64()?)),
            T_RECTANGLE => Value::Rectangle(Rectangle {
                min: Point::new(self.f64()?, self.f64()?),
                max: Point::new(self.f64()?, self.f64()?),
            }),
            T_UUID => {
                let b = self.take(16)?;
                let mut u = [0u8; 16];
                u.copy_from_slice(b);
                Value::Uuid(u)
            }
            T_BINARY => {
                let n = self.len()?;
                Value::Binary(self.take(n)?.to_vec())
            }
            T_ARRAY | T_MULTISET => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push(self.value()?);
                }
                if tag == T_ARRAY {
                    Value::Array(items)
                } else {
                    Value::Multiset(items)
                }
            }
            T_OBJECT => Value::Object(self.object(&[])?),
            other => return Err(AdmError::Serde(format!("unknown tag byte {other}"))),
        })
    }
}

/// Deserializes a single value, requiring all bytes be consumed.
pub fn decode(buf: &[u8]) -> Result<Value> {
    let mut d = Decoder::new(buf);
    let v = d.value()?;
    if !d.is_done() {
        return Err(AdmError::Serde(format!(
            "{} trailing bytes after value",
            buf.len() - d.position()
        )));
    }
    Ok(v)
}

/// [`decode`] for a reader that wants only the top-level fields named in
/// `fields` of the object in `buf` (every field when `fields` is empty; a
/// value that is no object is decoded whole): the other fields are stepped
/// over, and what follows the last wanted one is not read at all.
pub fn decode_fields(buf: &[u8], fields: &[String]) -> Result<Value> {
    if fields.is_empty() || buf.first() != Some(&T_OBJECT) {
        return decode(buf);
    }
    let mut d = Decoder { buf, pos: 1 };
    Ok(Value::Object(d.object(fields)?))
}

/// Encodes a composite index key (one or more values) to bytes.
///
/// The encoding is *not* memcmp-ordered; ordering is provided by
/// [`compare_keys`], which decodes lazily and applies the ADM total order
/// element-wise. Keys are small, so decode-compare is cheap and — unlike a
/// memcomparable double encoding — exact for 64-bit integers.
///
/// Numeric parts are *normalized* (integral doubles encode as ints) so that
/// ADM-equal keys — `Int(2)` and `Double(2.0)` — produce byte-identical
/// encodings; bloom filters and hash tables over raw key bytes then agree
/// with ADM equality.
pub fn encode_key(parts: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_len(&mut out, parts.len());
    for p in parts {
        match normalize_key_part(p) {
            Some(n) => encode_into(&n, &mut out),
            None => encode_into(p, &mut out),
        }
    }
    out
}

/// The key whose first part is `lead` and whose further parts are those of
/// the encoded key `rest`, unchanged: `encode_key` of the lot, without
/// decoding `rest` to get there (a secondary-index entry is its key's value
/// followed by the primary key).
pub fn prepend_key_part(lead: &Value, rest: &[u8]) -> Result<Vec<u8>> {
    let n = Decoder::new(rest).len()?;
    let mut out = Vec::with_capacity(rest.len() + 16);
    put_len(&mut out, n + 1);
    match normalize_key_part(lead) {
        Some(n) => encode_into(&n, &mut out),
        None => encode_into(lead, &mut out),
    }
    out.extend_from_slice(&rest[4..]);
    Ok(out)
}

/// The key made of every part of the encoded key `key` but the first — what
/// [`prepend_key_part`] was given as `rest` — without decoding any of them.
pub fn strip_key_part(key: &[u8]) -> Result<Vec<u8>> {
    let mut d = Decoder::new(key);
    let n = d.len()?.checked_sub(1).ok_or_else(|| AdmError::Serde("no key part to strip".into()))?;
    d.skip_value()?;
    let mut out = Vec::with_capacity(key.len());
    put_len(&mut out, n);
    out.extend_from_slice(&key[d.position()..]);
    Ok(out)
}

/// Returns the normalized form of a key part if it differs from the input.
fn normalize_key_part(v: &Value) -> Option<Value> {
    match v {
        Value::Double(d) if d.fract() == 0.0 && d.abs() < 9.0e18 && !d.is_nan() => {
            Some(Value::Int(*d as i64))
        }
        Value::Array(items) => {
            if items.iter().any(|i| normalize_key_part(i).is_some()) {
                Some(Value::Array(
                    items
                        .iter()
                        .map(|i| normalize_key_part(i).unwrap_or_else(|| i.clone()))
                        .collect(),
                ))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// True when every value that is ADM-equal to `v` has `v`'s [`encode_key`]
/// bytes. That is what lets a search key be hashed to its partition and
/// checked against byte-keyed bloom filters: an equal stored key cannot be
/// somewhere the bytes do not point. Scalars qualify, numbers thanks to the
/// normalization above; objects do not (equality ignores field order, the
/// bytes do not), so neither do collections that may hold one, nor the
/// integral doubles beyond the normalized range.
pub fn key_part_is_canonical(v: &Value) -> bool {
    match v {
        Value::Object(_) | Value::Array(_) | Value::Multiset(_) => false,
        Value::Double(d) => d.abs() < 9.0e18,
        _ => true,
    }
}

/// Decodes a composite key produced by [`encode_key`].
pub fn decode_key(buf: &[u8]) -> Result<Vec<Value>> {
    let mut d = Decoder::new(buf);
    let n = d.len()?;
    let mut out = Vec::with_capacity(n.min(16));
    for _ in 0..n {
        out.push(d.value()?);
    }
    if !d.is_done() {
        return Err(AdmError::Serde("trailing bytes after key".into()));
    }
    Ok(out)
}

/// Compares two encoded composite keys under the element-wise ADM total
/// order; shorter keys that are a prefix of longer ones compare less (so a
/// partial search key matches the left edge of its range).
pub fn compare_keys(a: &[u8], b: &[u8]) -> Ordering {
    let mut da = Decoder::new(a);
    let mut db = Decoder::new(b);
    let na = match da.len() {
        Ok(n) => n,
        Err(_) => return a.cmp(b),
    };
    let nb = match db.len() {
        Ok(n) => n,
        Err(_) => return a.cmp(b),
    };
    for _ in 0..na.min(nb) {
        let va = match da.value() {
            Ok(v) => v,
            Err(_) => return a.cmp(b),
        };
        let vb = match db.value() {
            Ok(v) => v,
            Err(_) => return a.cmp(b),
        };
        let c = crate::compare::total_cmp(&va, &vb);
        if c != Ordering::Equal {
            return c;
        }
    }
    na.cmp(&nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::total_cmp;

    fn roundtrip(v: &Value) {
        let bytes = encode(v);
        let back = decode(&bytes).unwrap();
        assert_eq!(v, &back, "binary roundtrip");
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Missing,
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(-0.0),
            Value::Double(f64::MAX),
            Value::from(""),
            Value::from("héllo"),
            Value::Date(-1),
            Value::Time(86_399_999),
            Value::DateTime(1_500_000_000_000),
            Value::Duration(Duration { months: -3, millis: 12345 }),
            Value::Point(Point::new(1.5, -2.5)),
            Value::Uuid([0xab; 16]),
            Value::Binary(vec![0, 255, 127]),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn nested_roundtrips() {
        roundtrip(&Value::Array(vec![
            Value::Int(1),
            Value::Array(vec![Value::from("deep")]),
            Value::object(vec![("k".into(), Value::Multiset(vec![Value::Null]))]),
        ]));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[200]).is_err());
        assert!(decode(&[T_STRING, 10, 0, 0, 0, b'a']).is_err(), "truncated string");
        let mut ok = encode(&Value::Int(1));
        ok.push(0);
        assert!(decode(&ok).is_err(), "trailing bytes");
    }

    #[test]
    fn key_compare_matches_value_compare() {
        let cases = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Double(1.5)],
            vec![Value::from("a")],
            vec![Value::from("ab")],
            vec![Value::Int(1), Value::from("x")],
            vec![Value::Int(1), Value::from("y")],
            vec![Value::Int(1)], // prefix of the two above
        ];
        for a in &cases {
            for b in &cases {
                let ka = encode_key(a);
                let kb = encode_key(b);
                let mut expected = Ordering::Equal;
                for (x, y) in a.iter().zip(b.iter()) {
                    expected = total_cmp(x, y);
                    if expected != Ordering::Equal {
                        break;
                    }
                }
                if expected == Ordering::Equal {
                    expected = a.len().cmp(&b.len());
                }
                assert_eq!(compare_keys(&ka, &kb), expected, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn key_roundtrip() {
        let parts = vec![Value::Int(42), Value::from("user"), Value::DateTime(1000)];
        let k = encode_key(&parts);
        assert_eq!(decode_key(&k).unwrap(), parts);
    }

    #[test]
    fn prepending_a_part_equals_encoding_the_lot() {
        let rest = vec![Value::Int(42), Value::from("user")];
        for lead in [Value::Int(7), Value::Double(7.0), Value::Double(7.5), Value::from("a")] {
            let mut all = vec![lead.clone()];
            all.extend(rest.iter().cloned());
            assert_eq!(prepend_key_part(&lead, &encode_key(&rest)).unwrap(), encode_key(&all));
        }
        assert!(prepend_key_part(&Value::Int(1), &[0, 0]).is_err(), "no part count to add to");
    }

    #[test]
    fn stripping_a_part_undoes_prepending_it() {
        let rest = encode_key(&[Value::Int(42), Value::from("user")]);
        for lead in [Value::Int(7), Value::from("a"), Value::Array(vec![Value::Null, Value::from("x")])] {
            assert_eq!(strip_key_part(&prepend_key_part(&lead, &rest).unwrap()).unwrap(), rest);
        }
        assert!(strip_key_part(&encode_key(&[])).is_err(), "no part to strip");
        assert!(strip_key_part(&rest[..6]).is_err(), "cut inside the first part");
    }

    #[test]
    fn object_encoding_carries_field_names() {
        // The E10 effect: undeclared fields pay for their names inline.
        let o = Value::object(vec![("aVeryLongFieldNameIndeed".into(), Value::Int(1))]);
        let short = Value::object(vec![("a".into(), Value::Int(1))]);
        assert!(encode(&o).len() > encode(&short).len());
    }
}
