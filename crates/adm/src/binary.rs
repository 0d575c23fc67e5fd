//! Compact binary serialization of [`Value`]s: how each value of a stored
//! record is written inside its row (the row around them — declared fields by
//! position, open ones by name — is [`crate::layout`]'s), and the whole-value
//! encoding of what has no type: the frames Hyracks and a feed spill to
//! disk.
//!
//! Layout: one tag byte followed by a payload. An `int` is a zigzag LEB128
//! varint ([`put_zigzag`]): one byte for -64..=63, two up to ±8 191, ten at
//! most. Every length and count — of a string, a binary, an array, a
//! multiset, an object's fields and each field's name — is a LEB128 varint
//! ([`put_varint`]), one byte below 128. A double, a point, a rectangle, a
//! date, a time, a datetime, a duration and a uuid keep their fixed widths.
//! An object's fields carry their names inline, as a row's open part does
//! (what makes an *undeclared field* cost its name — experiment E10). A varint is
//! read back only in its one shortest form, so a value has one encoding and
//! re-encoding what was decoded gives back the same bytes. Composite index
//! keys have an encoding of their own,
//! [`encode_key`], whose bytes order under `memcmp` exactly as element-wise
//! [`crate::compare::total_cmp`] orders the values.

use crate::compare::duration_rank;
use crate::error::{AdmError, Result};
use crate::spatial::{Point, Rectangle};
use crate::temporal::Duration;
use crate::value::{Object, Value, MAX_DEPTH};

// Tag bytes. Distinct per concrete type (Int vs Double), unlike TypeTag.
pub(crate) const T_MISSING: u8 = 0;
pub(crate) const T_NULL: u8 = 1;
pub(crate) const T_BOOL: u8 = 2;
pub(crate) const T_INT: u8 = 3;
pub(crate) const T_DOUBLE: u8 = 4;
pub(crate) const T_STRING: u8 = 5;
pub(crate) const T_DATE: u8 = 6;
pub(crate) const T_TIME: u8 = 7;
pub(crate) const T_DATETIME: u8 = 8;
pub(crate) const T_DURATION: u8 = 9;
pub(crate) const T_POINT: u8 = 10;
pub(crate) const T_RECTANGLE: u8 = 11;
pub(crate) const T_UUID: u8 = 12;
pub(crate) const T_BINARY: u8 = 13;
pub(crate) const T_ARRAY: u8 = 14;
pub(crate) const T_MULTISET: u8 = 15;
pub(crate) const T_OBJECT: u8 = 16;

/// Serializes a value, appending to `out`.
pub fn encode_into(v: &Value, out: &mut Vec<u8>) {
    // no value nests `usize::MAX` deep, so nothing is refused
    let _ = encode_nested(v, out, usize::MAX);
}

/// [`encode_into`] of a value whose collections and objects nest at most
/// `depth` deep (a scalar is 0 deep, `[1]` and `{"a": 1}` are 1); `None`,
/// with what was written of it left in `out`, for a deeper one — found as it
/// is written, not in a walk of its own.
pub(crate) fn encode_nested(v: &Value, out: &mut Vec<u8>, depth: usize) -> Option<()> {
    match v {
        Value::Missing => out.push(T_MISSING),
        Value::Null => out.push(T_NULL),
        Value::Bool(b) => {
            out.push(T_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(T_INT);
            put_zigzag(out, *i);
        }
        Value::Double(d) => {
            out.push(T_DOUBLE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::String(s) => put_var_cell(out, T_STRING, s.as_bytes()),
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
        Value::Binary(b) => put_var_cell(out, T_BINARY, b),
        Value::Array(items) | Value::Multiset(items) => {
            let inner = depth.checked_sub(1)?;
            out.push(if matches!(v, Value::Array(_)) { T_ARRAY } else { T_MULTISET });
            put_len(out, items.len());
            for i in items {
                encode_nested(i, out, inner)?;
            }
        }
        Value::Object(o) => {
            let inner = depth.checked_sub(1)?;
            out.push(T_OBJECT);
            put_len(out, o.len());
            for (k, val) in o.iter() {
                put_len(out, k.len());
                out.extend_from_slice(k.as_bytes());
                encode_nested(val, out, inner)?;
            }
        }
    }
    Some(())
}

/// Serializes a value to a fresh buffer.
pub fn encode(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_into(v, &mut out);
    out
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    put_varint(out, len as u64);
}

/// Appends `v` as a LEB128 varint: seven bits a byte, low bits first, the
/// high bit set on every byte but the last (1 byte below 2^7, 10 for 2^63).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `v` zigzag-coded as a varint: 0, -1, 1, -2, ... are 0, 1, 2, 3,
/// ..., so a value of small magnitude takes few bytes whatever its sign.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// The varint `buf` starts with, and the bytes it takes. `None` when it is
/// cut short or is not the shortest form of its value — a last byte of zero
/// after the first, or a tenth byte past bit 63 — which no writer makes.
pub fn read_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            let minimal = (b != 0 || i == 0) && (i < 9 || b == 1);
            return minimal.then_some((v, i + 1));
        }
    }
    None
}

/// Reverses the zigzag of [`put_zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// The `int` a whole cell holds — its tag and a zigzag varint, nothing
/// after — or `None` for a cell of another form.
pub fn int_cell(cell: &[u8]) -> Option<i64> {
    match cell {
        [T_INT, rest @ ..] => read_varint(rest).filter(|&(_, n)| n == rest.len()).map(|(v, _)| unzigzag(v)),
        _ => None,
    }
}

/// The bytes of the value a whole cell of the tag `tag` holds — the tag, a
/// varint length and that many bytes, nothing after, as a `string` or a
/// `binary` is — or `None` for a cell of another form. A string's bytes are
/// not checked for UTF-8.
pub fn var_cell(cell: &[u8], tag: u8) -> Option<&[u8]> {
    let rest = cell.strip_prefix(&[tag])?;
    read_varint(rest).filter(|&(len, n)| len == (rest.len() - n) as u64).map(|(_, n)| &rest[n..])
}

/// [`var_cell`] of a `string` cell.
pub fn string_cell(cell: &[u8]) -> Option<&[u8]> {
    var_cell(cell, T_STRING)
}

/// Appends the cell of tag `tag` whose bytes are `bytes`, which
/// [`var_cell`] reads back.
pub fn put_var_cell(out: &mut Vec<u8>, tag: u8, bytes: &[u8]) {
    out.push(tag);
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends what `write` appends after its varint length, which is not known
/// before: the bytes are written, then their length, then the length is
/// turned to the front. Returns what `write` does.
pub fn put_len_prefixed<T>(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    let start = out.len();
    let written = write(out);
    let len = out.len() - start;
    put_varint(out, len as u64);
    let header = out.len() - start - len;
    out[start..].rotate_right(header);
    written
}

/// The bytes after its tag of every value of tag `tag`, for a type whose
/// values all take the same number — a `boolean`, `double`, `point`,
/// `rectangle`, `date`, `time`, `datetime`, `duration` or `uuid` — and
/// `None` for any other tag.
pub fn fixed_width(tag: u8) -> Option<usize> {
    match tag {
        T_BOOL => Some(1),
        T_DATE | T_TIME => Some(4),
        T_DOUBLE | T_DATETIME => Some(8),
        T_DURATION => Some(12),
        T_POINT | T_UUID => Some(16),
        T_RECTANGLE => Some(32),
        _ => None,
    }
}

/// Appends the [`encode_key`] of the one value the cell `cell` holds whole:
/// `encode_key(&[decode(cell)?])`, with an `int`'s built from its varint. A
/// cell that is no one value is an error.
pub fn cell_key_into(cell: &[u8], out: &mut Vec<u8>) -> Result<()> {
    match int_cell(cell) {
        Some(v) => {
            out.push(K_NUM);
            out.extend_from_slice(&ordered_i64(v));
        }
        None => put_key_part(&decode(cell)?, out),
    }
    Ok(())
}

/// Streaming decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Collections and objects open around the value being read, and how
    /// many may be.
    depth: usize,
    max_depth: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `buf`, refusing values that nest
    /// deeper than [`MAX_DEPTH`]: what is stored, logged or sent in.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0, depth: 0, max_depth: MAX_DEPTH }
    }

    /// Starts decoding bytes this process encoded from values it held — a
    /// spill run's — which nest as deep as those values did and are read
    /// back whatever their depth.
    pub fn own(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0, depth: 0, max_depth: usize::MAX }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes consumed from `start` on.
    pub(crate) fn since(&self, start: usize) -> &'a [u8] {
        self.buf.get(start..self.pos).unwrap_or_default()
    }

    /// Reads what `read` reads inside one more collection or object.
    fn nested<T>(&mut self, read: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == self.max_depth {
            return Err(AdmError::Serde(format!("values nest deeper than {} at offset {}", self.max_depth, self.pos)));
        }
        self.depth += 1;
        let read = read(self);
        self.depth -= 1;
        read
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

    pub(crate) fn varint(&mut self) -> Result<u64> {
        let (v, n) = read_varint(&self.buf[self.pos..]).ok_or_else(|| {
            AdmError::Serde(format!("truncated or overlong varint at offset {}", self.pos))
        })?;
        self.pos += n;
        Ok(v)
    }

    /// A length or a count: a varint no greater than the bytes left, which
    /// is what any of them takes at least — so nothing is sized by one that
    /// the input cannot hold.
    pub(crate) fn len(&mut self) -> Result<usize> {
        let at = self.pos;
        match self.varint()? {
            n if n <= (self.buf.len() - self.pos) as u64 => Ok(n as usize),
            n => Err(AdmError::Serde(format!("a length of {n} at offset {at} runs past the input"))),
        }
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
            T_INT => {
                self.varint()?;
                0
            }
            T_STRING | T_BINARY => self.len()?,
            T_ARRAY | T_MULTISET => {
                let n = self.len()?;
                self.nested(|d| (0..n).try_for_each(|_| d.skip_value()))?;
                0
            }
            T_OBJECT => {
                let n = self.len()?;
                self.nested(|d| d.skip_pairs(n))?;
                0
            }
            other => fixed_width(other).ok_or_else(|| AdmError::Serde(format!("unknown tag byte {other}")))?,
        };
        self.take(n)?;
        Ok(())
    }

    /// Steps over `n` `name value` pairs: an object's fields after their
    /// count, or a row's open part's.
    pub(crate) fn skip_pairs(&mut self, n: usize) -> Result<()> {
        for _ in 0..n {
            let klen = self.len()?;
            self.take(klen)?;
            self.skip_value()?;
        }
        Ok(())
    }

    /// Reads `n` `name value` pairs — an object's fields after their count,
    /// or a row's open part's — into `obj`: every one, or those whose name
    /// `wanted` holds, the others stepped over. Reading stops once each name
    /// wanted is in; whether it read all `n`.
    pub(crate) fn pairs(&mut self, n: usize, wanted: Option<&[String]>, obj: &mut Object) -> Result<bool> {
        let mut unresolved = wanted.map_or(usize::MAX, <[String]>::len);
        for _ in 0..n {
            let klen = self.len()?;
            let name = self.take(klen)?;
            if wanted.is_some_and(|names| !names.iter().any(|f| f.as_bytes() == name)) {
                self.skip_value()?;
                continue;
            }
            let name =
                std::str::from_utf8(name).map_err(|_| AdmError::Serde("invalid UTF-8 in field name".into()))?;
            obj.set(name.to_owned(), self.value()?);
            unresolved -= 1;
            if unresolved == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Decodes one value.
    pub fn value(&mut self) -> Result<Value> {
        let tag = self.u8()?;
        Ok(match tag {
            T_MISSING => Value::Missing,
            T_NULL => Value::Null,
            T_BOOL => Value::Bool(self.u8()? != 0),
            T_INT => Value::Int(unzigzag(self.varint()?)),
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
                let mut items = Vec::with_capacity(n);
                self.nested(|d| {
                    for _ in 0..n {
                        items.push(d.value()?);
                    }
                    Ok(())
                })?;
                if tag == T_ARRAY {
                    Value::Array(items)
                } else {
                    Value::Multiset(items)
                }
            }
            T_OBJECT => {
                let n = self.len()?;
                let mut o = Object::with_capacity(n);
                self.nested(|d| d.pairs(n, None, &mut o))?;
                Value::Object(o)
            }
            other => return Err(AdmError::Serde(format!("unknown tag byte {other}"))),
        })
    }
}

/// Deserializes a single value, requiring all bytes be consumed.
pub fn decode(buf: &[u8]) -> Result<Value> {
    whole(Decoder::new(buf))
}

/// [`decode`] of bytes this process encoded (see [`Decoder::own`]).
pub fn decode_own(buf: &[u8]) -> Result<Value> {
    whole(Decoder::own(buf))
}

fn whole(mut d: Decoder<'_>) -> Result<Value> {
    let v = d.value()?;
    if !d.is_done() {
        return Err(AdmError::Serde(format!("{} trailing bytes after value", d.buf.len() - d.position())));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Index keys: an order-preserving encoding
// ---------------------------------------------------------------------------

// Key tag bytes, in ADM type order ([`crate::value::TypeTag`]). 0x00 closes a
// collection and an escaped string and 0xFF leads a number's fraction, so
// neither is a tag: a part that ends sorts before one that goes on.
const K_MISSING: u8 = 0x01;
const K_NULL: u8 = 0x02;
const K_BOOL: u8 = 0x03;
/// A double below `i64::MIN`, `-inf` included.
const K_NUM_BELOW: u8 = 0x04;
const K_NUM: u8 = 0x05;
/// A double above `i64::MAX`, `+inf` and NaN included.
const K_NUM_ABOVE: u8 = 0x06;
const K_STRING: u8 = 0x07;
const K_DATE: u8 = 0x08;
const K_TIME: u8 = 0x09;
const K_DATETIME: u8 = 0x0A;
const K_DURATION: u8 = 0x0B;
const K_POINT: u8 = 0x0C;
const K_RECTANGLE: u8 = 0x0D;
const K_UUID: u8 = 0x0E;
const K_BINARY: u8 = 0x0F;
const K_ARRAY: u8 = 0x10;
const K_MULTISET: u8 = 0x11;
const K_OBJECT: u8 = 0x12;

const K_END: u8 = 0x00;
/// Leads each `name value` pair of an object (an empty name would otherwise
/// read as the object's end).
const K_FIELD: u8 = 0x01;
/// Follows the integer part of a non-integral number, and an escaped 0x00.
/// Greater than every tag: `(2, pk) < 2.5 < (3, pk)`.
const K_MORE: u8 = 0xFF;

const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

fn ordered_i32(v: i32) -> [u8; 4] {
    (v as u32 ^ (1 << 31)).to_be_bytes()
}

fn ordered_i64(v: i64) -> [u8; 8] {
    (v as u64 ^ (1 << 63)).to_be_bytes()
}

/// Eight bytes that order like `f64::total_cmp`.
fn ordered_f64(v: f64) -> [u8; 8] {
    let bits = v.to_bits();
    (if bits >> 63 == 1 { !bits } else { bits | (1 << 63) }).to_be_bytes()
}

/// `bytes` with each 0x00 followed by 0xFF, closed by a lone 0x00: ordered
/// like `bytes`, a proper prefix first.
fn put_escaped(out: &mut Vec<u8>, bytes: &[u8]) {
    for chunk in bytes.split_inclusive(|b| *b == 0) {
        out.extend_from_slice(chunk);
        if chunk.last() == Some(&0) {
            out.push(K_MORE);
        }
    }
    out.push(K_END);
}

/// A number: the tag, `floor(v)` as an i64 and — for a value that is not
/// whole — [`K_MORE`] and the double itself. Whole doubles are written as
/// the integer they equal, so ADM-equal numbers share their bytes.
fn put_key_double(out: &mut Vec<u8>, d: f64) {
    if (-TWO_POW_63..TWO_POW_63).contains(&d) {
        let floor = d.floor();
        out.push(K_NUM);
        out.extend_from_slice(&ordered_i64(floor as i64));
        if floor != d {
            out.push(K_MORE);
            out.extend_from_slice(&ordered_f64(d));
        }
    } else {
        // every NaN is the one NaN, above +inf
        let d = if d.is_nan() { f64::NAN } else { d };
        out.push(if d < 0.0 { K_NUM_BELOW } else { K_NUM_ABOVE });
        out.extend_from_slice(&ordered_f64(d));
    }
}

fn put_key_part(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Missing => out.push(K_MISSING),
        Value::Null => out.push(K_NULL),
        Value::Bool(b) => out.extend_from_slice(&[K_BOOL, *b as u8]),
        Value::Int(i) => {
            out.push(K_NUM);
            out.extend_from_slice(&ordered_i64(*i));
        }
        Value::Double(d) => put_key_double(out, *d),
        Value::String(s) => {
            out.push(K_STRING);
            put_escaped(out, s.as_bytes());
        }
        Value::Date(d) => {
            out.push(K_DATE);
            out.extend_from_slice(&ordered_i32(*d));
        }
        Value::Time(t) => {
            out.push(K_TIME);
            out.extend_from_slice(&ordered_i32(*t));
        }
        Value::DateTime(t) => {
            out.push(K_DATETIME);
            out.extend_from_slice(&ordered_i64(*t));
        }
        Value::Duration(d) => {
            // `millis` is what the rank leaves once the months are known
            out.push(K_DURATION);
            out.extend_from_slice(&ordered_i64(duration_rank(d)));
            out.extend_from_slice(&ordered_i32(d.months));
        }
        Value::Point(p) => {
            out.push(K_POINT);
            for c in [p.x, p.y] {
                out.extend_from_slice(&ordered_f64(c));
            }
        }
        Value::Rectangle(r) => {
            out.push(K_RECTANGLE);
            for c in [r.min.x, r.min.y, r.max.x, r.max.y] {
                out.extend_from_slice(&ordered_f64(c));
            }
        }
        Value::Uuid(u) => {
            out.push(K_UUID);
            out.extend_from_slice(u);
        }
        Value::Binary(b) => {
            out.push(K_BINARY);
            put_escaped(out, b);
        }
        Value::Array(items) | Value::Multiset(items) => {
            out.push(if matches!(v, Value::Array(_)) { K_ARRAY } else { K_MULTISET });
            for i in items {
                put_key_part(i, out);
            }
            out.push(K_END);
        }
        Value::Object(o) => {
            // by name, as the total order compares objects
            let mut fields: Vec<_> = o.iter().collect();
            fields.sort_unstable_by_key(|(name, _)| *name);
            out.push(K_OBJECT);
            for (name, val) in fields {
                out.push(K_FIELD);
                put_escaped(out, name.as_bytes());
                put_key_part(val, out);
            }
            out.push(K_END);
        }
    }
}

/// Encodes a composite index key (one or more values) to bytes that order,
/// as plain byte strings, the way element-wise [`crate::compare::total_cmp`]
/// orders the values: a key comparison is a `memcmp` (`a.cmp(b)` on the
/// slices) and nothing is decoded to make one.
///
/// A key is the concatenation of its parts, each self-delimiting, so a
/// partial key is a byte prefix of the keys it starts and sorts directly
/// before them. ADM-equal parts — `Int(2)` and `Double(2.0)`, two objects
/// with their fields in a different order — have the same bytes, so bloom
/// filters and hash routing over key bytes agree with ADM equality. The
/// byte layout per type is DESIGN.md "Key encoding".
pub fn encode_key(parts: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    for p in parts {
        put_key_part(p, &mut out);
    }
    out
}

/// The key whose first part is `lead` and whose further parts are those of
/// the encoded key `rest`: `encode_key` of the lot (a secondary-index entry
/// is its key's value followed by the primary key).
pub fn prepend_key_part(lead: &Value, rest: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(rest.len() + 16);
    put_key_part(lead, &mut out);
    out.extend_from_slice(rest);
    out
}

/// Every part of the encoded key `key` but the first — what
/// [`prepend_key_part`] was given as `rest`.
pub fn strip_key_part(key: &[u8]) -> Result<&[u8]> {
    let mut d = Decoder::new(key);
    d.key_part()?;
    Ok(&key[d.pos..])
}

/// The exclusive upper bound of the keys whose leading parts are the parts
/// of `prefix`: no part begins with 0xFF, and the one thing that follows a
/// part with it — the fraction of `2.5` after the bytes of `2` — goes on
/// for eight bytes more, so it lies above the bound with the rest of what is
/// greater.
pub fn key_prefix_end(mut prefix: Vec<u8>) -> Vec<u8> {
    prefix.push(K_MORE);
    prefix
}

/// Decodes a composite key produced by [`encode_key`]. Whole doubles come
/// back as the integers they were written as, an object with its fields in
/// name order.
pub fn decode_key(buf: &[u8]) -> Result<Vec<Value>> {
    let mut d = Decoder::new(buf);
    let mut out = Vec::new();
    while !d.is_done() {
        out.push(d.key_part()?);
    }
    Ok(out)
}

impl<'a> Decoder<'a> {
    fn ordered_i32(&mut self) -> Result<i32> {
        Ok((u32::from_be_bytes(self.take(4)?.try_into().unwrap()) ^ (1 << 31)) as i32)
    }

    fn ordered_i64(&mut self) -> Result<i64> {
        Ok((u64::from_be_bytes(self.take(8)?.try_into().unwrap()) ^ (1 << 63)) as i64)
    }

    fn ordered_f64(&mut self) -> Result<f64> {
        let bits = u64::from_be_bytes(self.take(8)?.try_into().unwrap());
        Ok(f64::from_bits(if bits >> 63 == 1 { bits ^ (1 << 63) } else { !bits }))
    }

    /// True, and steps over it, when the next byte is `byte`.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.buf.get(self.pos) == Some(&byte);
        self.pos += found as usize;
        found
    }

    /// The reverse of [`put_escaped`].
    fn escaped(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let rest = &self.buf[self.pos..];
            let n = rest
                .iter()
                .position(|b| *b == 0)
                .ok_or_else(|| AdmError::Serde("unterminated string in key".into()))?;
            let escape = rest.get(n + 1) == Some(&K_MORE);
            out.extend_from_slice(&rest[..n + escape as usize]);
            self.pos += n + 1 + escape as usize;
            if !escape {
                return Ok(out);
            }
        }
    }

    fn key_string(&mut self) -> Result<String> {
        String::from_utf8(self.escaped()?).map_err(|_| AdmError::Serde("invalid UTF-8 in key".into()))
    }

    /// Decodes one key part.
    fn key_part(&mut self) -> Result<Value> {
        let tag = self.u8()?;
        Ok(match tag {
            K_MISSING => Value::Missing,
            K_NULL => Value::Null,
            K_BOOL => Value::Bool(self.u8()? != 0),
            K_NUM => {
                let floor = self.ordered_i64()?;
                if self.eat(K_MORE) {
                    Value::Double(self.ordered_f64()?)
                } else {
                    Value::Int(floor)
                }
            }
            K_NUM_BELOW | K_NUM_ABOVE => Value::Double(self.ordered_f64()?),
            K_STRING => Value::String(self.key_string()?),
            K_DATE => Value::Date(self.ordered_i32()?),
            K_TIME => Value::Time(self.ordered_i32()?),
            K_DATETIME => Value::DateTime(self.ordered_i64()?),
            K_DURATION => {
                let rank = self.ordered_i64()?;
                let months = self.ordered_i32()?;
                let millis = rank.wrapping_sub(duration_rank(&Duration { months, millis: 0 }));
                Value::Duration(Duration { months, millis })
            }
            K_POINT => Value::Point(Point::new(self.ordered_f64()?, self.ordered_f64()?)),
            K_RECTANGLE => Value::Rectangle(Rectangle {
                min: Point::new(self.ordered_f64()?, self.ordered_f64()?),
                max: Point::new(self.ordered_f64()?, self.ordered_f64()?),
            }),
            K_UUID => Value::Uuid(self.take(16)?.try_into().unwrap()),
            K_BINARY => Value::Binary(self.escaped()?),
            K_ARRAY | K_MULTISET => {
                let mut items = Vec::new();
                while !self.eat(K_END) {
                    items.push(self.key_part()?);
                }
                if tag == K_ARRAY {
                    Value::Array(items)
                } else {
                    Value::Multiset(items)
                }
            }
            K_OBJECT => {
                let mut o = Object::new();
                while !self.eat(K_END) {
                    if !self.eat(K_FIELD) {
                        return Err(AdmError::Serde("bad object field in key".into()));
                    }
                    let name = self.key_string()?;
                    o.set(name, self.key_part()?);
                }
                Value::Object(o)
            }
            other => return Err(AdmError::Serde(format!("unknown key tag byte {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::total_cmp;
    use std::cmp::Ordering;

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
        assert!(decode(&[T_STRING, 10, b'a']).is_err(), "truncated string");
        let mut ok = encode(&Value::Int(1));
        ok.push(0);
        assert!(decode(&ok).is_err(), "trailing bytes");
        // a length no input could hold is refused before anything is sized by it
        let mut huge = vec![T_ARRAY];
        put_varint(&mut huge, u64::MAX);
        assert!(decode(&huge).is_err(), "a count past the input");
    }

    #[test]
    fn an_int_takes_the_bytes_its_magnitude_needs() {
        for (v, len) in [(0, 2), (-1, 2), (63, 2), (-64, 2), (64, 3), (-8_192, 3), (8_192, 4), (i64::MAX, 11), (i64::MIN, 11)] {
            let bytes = encode(&Value::Int(v));
            assert_eq!((bytes.len(), int_cell(&bytes)), (len, Some(v)), "{v}");
            roundtrip(&Value::Int(v));
        }
        assert_eq!(encode(&Value::from("ab")), [T_STRING, 2, b'a', b'b'], "a length below 128 is one byte");
        let long = "x".repeat(300);
        assert_eq!(encode(&Value::from(long.as_str()))[..3], [T_STRING, 0xAC, 0x02]);
        assert_eq!(int_cell(&encode(&Value::Double(1.0))), None, "not an int");
    }

    #[test]
    fn a_varint_reads_back_only_in_its_shortest_form() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX / 2, u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert_eq!(read_varint(&bytes), Some((v, bytes.len())), "{v}");
            assert_eq!(read_varint(&bytes[..bytes.len() - 1]), None, "{v} cut short");
            let n = bytes.len();
            // the same value with a zero byte more than it needs
            if n < 10 {
                bytes[n - 1] |= 0x80;
                bytes.push(0);
                assert_eq!(read_varint(&bytes), None, "{v} padded");
            }
            assert_eq!(unzigzag(((v as i64) << 1 ^ (v as i64) >> 63) as u64), v as i64);
        }
        assert_eq!(read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]), None, "past bit 63");
        assert_eq!(read_varint(&[0xFF; 11]), None, "eleven bytes");
        // an `int` whose varint was padded would re-encode to other bytes
        assert!(decode(&[T_INT, 0x82, 0x00]).is_err());
        assert!(Decoder::new(&[T_INT, 0x82, 0x00]).skip_value().is_err());
    }

    #[test]
    fn every_cut_of_an_encoding_is_an_error_not_a_panic() {
        let v = Value::object(vec![
            ("id".into(), Value::Int(-300)),
            ("name".into(), Value::from("x".repeat(200))),
            ("tags".into(), Value::Multiset(vec![Value::Int(1 << 40), Value::Binary(vec![9; 130])])),
            ("at".into(), Value::Point(Point::new(1.0, 2.0))),
        ]);
        let bytes = encode(&v);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
            assert!(Decoder::new(&bytes[..cut]).skip_value().is_err(), "skipped to a cut at {cut}");
        }
        assert_eq!(decode(&bytes).unwrap(), v);
    }

    #[test]
    fn key_bytes_order_like_the_values() {
        let cases = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Double(1.5)],
            vec![Value::Int(-1)],
            vec![Value::Double(-0.5)],
            vec![Value::from("a")],
            vec![Value::from("ab")],
            vec![Value::from("a\0")],
            vec![Value::Int(1), Value::from("x")],
            vec![Value::Int(1), Value::from("y")],
            vec![Value::Double(1.5), Value::from("x")],
            vec![Value::Int(1)], // prefix of the two above
        ];
        for a in &cases {
            for b in &cases {
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
                assert_eq!(encode_key(a).cmp(&encode_key(b)), expected, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn an_int_key_is_nine_bytes_and_equal_numbers_share_them() {
        assert_eq!(encode_key(&[Value::Int(7)]).len(), 9);
        assert_eq!(encode_key(&[Value::Double(7.0)]), encode_key(&[Value::Int(7)]));
        assert_eq!(encode_key(&[Value::Double(-0.0)]), encode_key(&[Value::Int(0)]));
        let (a, b) = (("a".to_string(), Value::Int(1)), ("b".to_string(), Value::Int(2)));
        let (ab, ba) = (Value::object(vec![a.clone(), b.clone()]), Value::object(vec![b, a]));
        assert_ne!(ab, ba);
        assert_eq!(encode_key(&[ab]), encode_key(&[ba]), "object equality ignores field order");
    }

    #[test]
    fn key_roundtrip() {
        let parts = vec![
            Value::Int(42),
            Value::Double(-2.5),
            Value::Double(1e300),
            Value::Double(f64::NEG_INFINITY),
            Value::from("us\0er"),
            Value::DateTime(1000),
            Value::Duration(Duration { months: -3, millis: 12345 }),
            Value::Binary(vec![0, 255, 0]),
            Value::Array(vec![Value::Null, Value::Multiset(vec![Value::from("x")])]),
            Value::object(vec![("k".into(), Value::Point(Point::new(1.5, -2.5)))]),
        ];
        let k = encode_key(&parts);
        assert_eq!(decode_key(&k).unwrap(), parts);
        assert!(decode_key(&k[..k.len() - 1]).is_err(), "cut inside the last part");
        assert!(decode_key(&[0x40]).is_err(), "no such tag");
    }

    #[test]
    fn a_cells_key_is_the_key_of_its_value() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0123);
        let values = [
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(2.0),
            Value::Double(-0.0),
            Value::Double(nan),
            Value::Double(f64::from_bits(1)),
            Value::from(""),
            Value::from("é\0😀"),
            Value::Point(Point::new(-0.0, nan)),
            Value::Null,
            Value::Array(vec![Value::Int(1), Value::from("x")]),
        ];
        for v in &values {
            let cell = encode(v);
            let mut key = b"kept".to_vec();
            cell_key_into(&cell, &mut key).unwrap();
            assert_eq!(key[4..], encode_key(std::slice::from_ref(v)), "{v:?}");
        }
        assert!(cell_key_into(&[T_STRING, 2, b'a'], &mut Vec::new()).is_err(), "a cell cut short");
        assert!(cell_key_into(&[], &mut Vec::new()).is_err(), "no cell");
        // the cell helpers read back what they write, and nothing else
        for s in ["", "é", &"x".repeat(300)] {
            let mut cell = Vec::new();
            put_var_cell(&mut cell, T_STRING, s.as_bytes());
            assert_eq!((cell.clone(), string_cell(&cell)), (encode(&Value::from(s)), Some(s.as_bytes())));
            assert_eq!(string_cell(&cell[..cell.len() - 1]), None, "{s:?} cut short");
            assert_eq!(var_cell(&encode(&Value::Binary(s.into())), T_BINARY), Some(s.as_bytes()));
            let mut prefixed = vec![T_STRING];
            put_len_prefixed(&mut prefixed, |out| out.extend_from_slice(s.as_bytes()));
            assert_eq!(prefixed, cell, "{s:?}: its length turned to the front");
        }
        assert_eq!(string_cell(&[T_INT, 2]), None);
        assert_eq!(var_cell(&encode(&Value::from("x")), T_BINARY), None);
        for v in [Value::Bool(true), Value::Double(1.5), Value::Point(Point::new(1.0, 2.0)), Value::Uuid([7; 16])] {
            let cell = encode(&v);
            assert_eq!(fixed_width(cell[0]), Some(cell.len() - 1), "{v:?}");
        }
        assert_eq!(fixed_width(T_INT), None);
        assert_eq!(fixed_width(T_NULL), None);
    }

    #[test]
    fn prepending_a_part_equals_encoding_the_lot() {
        let rest = vec![Value::Int(42), Value::from("user")];
        for lead in [Value::Int(7), Value::Double(7.0), Value::Double(7.5), Value::from("a")] {
            let mut all = vec![lead.clone()];
            all.extend(rest.iter().cloned());
            assert_eq!(prepend_key_part(&lead, &encode_key(&rest)), encode_key(&all));
        }
    }

    #[test]
    fn stripping_a_part_undoes_prepending_it() {
        let rest = encode_key(&[Value::Int(42), Value::from("user")]);
        for lead in [
            Value::Int(7),
            Value::Double(7.5),
            Value::from("a\0b"),
            Value::Array(vec![Value::Null, Value::from("x")]),
            Value::object(vec![("".into(), Value::Int(1))]),
        ] {
            assert_eq!(strip_key_part(&prepend_key_part(&lead, &rest)).unwrap(), rest);
        }
        assert!(strip_key_part(&[]).is_err(), "no part to strip");
        assert!(strip_key_part(&rest[..6]).is_err(), "cut inside the first part");
    }

    #[test]
    fn a_prefix_and_its_end_bracket_the_keys_it_starts() {
        let two = encode_key(&[Value::Int(2)]);
        let end = key_prefix_end(two.clone());
        for inside in [vec![Value::Int(2)], vec![Value::Int(2), Value::Int(i64::MAX)], vec![Value::Double(2.0), Value::object(vec![])]] {
            let k = encode_key(&inside);
            assert!(two <= k && k < end, "{inside:?}");
        }
        for above in [vec![Value::Double(2.5)], vec![Value::Double(2.000001), Value::Int(0)], vec![Value::Int(3)]] {
            assert!(encode_key(&above) >= end, "{above:?}");
        }
        assert!(encode_key(&[Value::Double(1.5), Value::Int(0)]) < two);
    }

    #[test]
    fn object_encoding_carries_field_names() {
        // The E10 effect: undeclared fields pay for their names inline.
        let o = Value::object(vec![("aVeryLongFieldNameIndeed".into(), Value::Int(1))]);
        let short = Value::object(vec![("a".into(), Value::Int(1))]);
        assert!(encode(&o).len() > encode(&short).len());
    }
}
