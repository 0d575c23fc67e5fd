//! The [`Value`] enum: the runtime representation of every ADM instance.
//!
//! A `Value` is what flows through Hyracks operator pipelines, what expressions
//! evaluate to, and what gets serialized into LSM components. The variants
//! mirror ADM's primitive and constructed types (paper Section III, Figure 3):
//! JSON's scalars plus `int64`-vs-`double` distinction, temporal types, simple
//! spatial types, and three constructors — ordered arrays, unordered multisets
//! (`{{ ... }}`), and objects.

use crate::spatial::{Point, Rectangle};
use crate::temporal::Duration;
use std::fmt;

/// How deep collections, objects and query expressions may nest: what every
/// recursive reader (the ADM text parser, the binary decoder, the SQL++ and
/// AQL parsers) refuses past, so that no input, however deep, exhausts a
/// thread's stack, and what a stored record may not exceed, so that all that
/// is stored decodes.
pub const MAX_DEPTH: usize = 128;

/// Numeric tag identifying a value's type; also the cross-type sort ordinal
/// used by [`crate::compare`]. `Missing < Null < ...` follows AsterixDB's
/// ordering where `MISSING` sorts before `NULL`, which sorts before all data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TypeTag {
    Missing = 0,
    Null = 1,
    Boolean = 2,
    /// Shared ordinal for Int64 and Double so cross-type numeric comparison
    /// (e.g. `2 < 2.5`) orders correctly in indexes.
    Number = 3,
    String = 4,
    Date = 5,
    Time = 6,
    DateTime = 7,
    Duration = 8,
    Point = 9,
    Rectangle = 10,
    Uuid = 11,
    Binary = 12,
    Array = 13,
    Multiset = 14,
    Object = 15,
}

impl TypeTag {
    /// Human-readable ADM type name.
    pub fn name(self) -> &'static str {
        match self {
            TypeTag::Missing => "missing",
            TypeTag::Null => "null",
            TypeTag::Boolean => "boolean",
            TypeTag::Number => "number",
            TypeTag::String => "string",
            TypeTag::Date => "date",
            TypeTag::Time => "time",
            TypeTag::DateTime => "datetime",
            TypeTag::Duration => "duration",
            TypeTag::Point => "point",
            TypeTag::Rectangle => "rectangle",
            TypeTag::Uuid => "uuid",
            TypeTag::Binary => "binary",
            TypeTag::Array => "array",
            TypeTag::Multiset => "multiset",
            TypeTag::Object => "object",
        }
    }
}

/// An ADM object: an ordered list of distinct field-name/value pairs.
///
/// Field order is preserved (it matters for printing and for closed-type
/// layout); lookup is linear, which is the right trade-off for the small
/// objects typical of record data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Object { fields: Vec::new() }
    }

    /// Creates an object with pre-allocated capacity for `n` fields.
    pub fn with_capacity(n: usize) -> Self {
        Object { fields: Vec::with_capacity(n) }
    }

    /// Builds an object from `(name, value)` pairs. Later duplicates replace
    /// earlier ones, matching UPSERT-style object construction semantics.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        let mut o = Object::new();
        for (k, v) in pairs {
            o.set(k.into(), v);
        }
        o
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field lookup by name; `None` when the field is absent (the caller maps
    /// this to ADM `MISSING`).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Mutable field lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Sets a field, replacing any existing field of the same name (keeping
    /// its position) or appending a new one.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        match self.get_mut(&name) {
            Some(slot) => *slot = value,
            None => self.fields.push((name, value)),
        }
    }

    /// Removes a field by name, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(k, _)| k == name)?;
        Some(self.fields.remove(idx).1)
    }

    /// Iterates over `(name, value)` pairs in field order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Field names in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }
}

impl FromIterator<(String, Value)> for Object {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Object::from_pairs(iter)
    }
}

/// A single ADM value.
///
/// `Missing` and `Null` are distinct: `MISSING` means "no such field", `NULL`
/// means "field present, value unknown" — SQL++ propagates them differently
/// and both are first-class here.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Absent field / out-of-band marker; SQL++'s `MISSING`.
    #[default]
    Missing,
    /// SQL-style `NULL`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// 64-bit signed integer (`int`, `int8..int64` in ADM collapse here).
    Int(i64),
    /// IEEE-754 double (`double`, `float` collapse here).
    Double(f64),
    /// UTF-8 string.
    String(String),
    /// Days since the Unix epoch (ADM `date`).
    Date(i32),
    /// Milliseconds since midnight (ADM `time`).
    Time(i32),
    /// Milliseconds since the Unix epoch (ADM `datetime`).
    DateTime(i64),
    /// Calendar + chronological duration (ADM `duration`).
    Duration(Duration),
    /// 2-D point (ADM `point`).
    Point(Point),
    /// Axis-aligned rectangle (ADM `rectangle`).
    Rectangle(Rectangle),
    /// 128-bit UUID.
    Uuid([u8; 16]),
    /// Raw bytes (ADM `binary`).
    Binary(Vec<u8>),
    /// Ordered collection `[ ... ]`.
    Array(Vec<Value>),
    /// Unordered, duplicate-preserving collection `{{ ... }}`.
    Multiset(Vec<Value>),
    /// Record `{ ... }`.
    Object(Object),
}

impl Value {
    /// The value's [`TypeTag`].
    #[inline]
    pub fn tag(&self) -> TypeTag {
        match self {
            Value::Missing => TypeTag::Missing,
            Value::Null => TypeTag::Null,
            Value::Bool(_) => TypeTag::Boolean,
            Value::Int(_) | Value::Double(_) => TypeTag::Number,
            Value::String(_) => TypeTag::String,
            Value::Date(_) => TypeTag::Date,
            Value::Time(_) => TypeTag::Time,
            Value::DateTime(_) => TypeTag::DateTime,
            Value::Duration(_) => TypeTag::Duration,
            Value::Point(_) => TypeTag::Point,
            Value::Rectangle(_) => TypeTag::Rectangle,
            Value::Uuid(_) => TypeTag::Uuid,
            Value::Binary(_) => TypeTag::Binary,
            Value::Array(_) => TypeTag::Array,
            Value::Multiset(_) => TypeTag::Multiset,
            Value::Object(_) => TypeTag::Object,
        }
    }

    /// Concrete ADM type name (distinguishes `int64` from `double`, unlike
    /// [`TypeTag::name`] which reports the shared `number` ordinal).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int64",
            Value::Double(_) => "double",
            other => other.tag().name(),
        }
    }

    /// True for `MISSING`.
    #[inline]
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }

    /// True for `NULL`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for `NULL` or `MISSING` ("unknown" in SQL++ terms).
    #[inline]
    pub fn is_unknown(&self) -> bool {
        matches!(self, Value::Null | Value::Missing)
    }

    /// Numeric view: `Some(f64)` for Int/Double, else `None`.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Integer view (exact): `Some(i64)` for Int, and for Double with an exact
    /// integral value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Double(d) if d.fract() == 0.0 && d.abs() < 9.2e18 => Some(*d as i64),
            _ => None,
        }
    }

    /// String view.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Object view.
    #[inline]
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutable object view.
    #[inline]
    pub fn as_object_mut(&mut self) -> Option<&mut Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Collection view: the items of an array or multiset.
    #[inline]
    pub fn as_collection(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) | Value::Multiset(v) => Some(v),
            _ => None,
        }
    }

    /// Field access that yields `MISSING` for non-objects and absent fields,
    /// matching SQL++ navigation semantics (`user.alias` on a non-object is
    /// `MISSING`, not an error).
    pub fn field(&self, name: &str) -> &Value {
        match self {
            Value::Object(o) => o.get(name).unwrap_or(&Value::Missing),
            _ => &Value::Missing,
        }
    }

    /// Index access with the same MISSING-on-mismatch semantics.
    #[allow(clippy::should_implement_trait)] // ADM navigation, not ops::Index
    pub fn index(&self, i: i64) -> &Value {
        match self {
            Value::Array(items) => {
                if i >= 0 && (i as usize) < items.len() {
                    &items[i as usize]
                } else {
                    &Value::Missing
                }
            }
            _ => &Value::Missing,
        }
    }

    /// Convenience constructor: `Value::from("s")`, numbers, bools via `From`.
    pub fn object(pairs: Vec<(String, Value)>) -> Value {
        Value::Object(Object::from_pairs(pairs))
    }

    /// Approximate in-memory footprint in bytes, used by Hyracks frame and
    /// memory-budget accounting (paper's working-memory model, ref \[10\]).
    pub fn heap_size(&self) -> usize {
        let inner = match self {
            Value::String(s) => s.len(),
            Value::Binary(b) => b.len(),
            Value::Array(v) | Value::Multiset(v) => v.iter().map(Value::heap_size).sum(),
            Value::Object(o) => o.iter().map(|(k, v)| k.len() + v.heap_size()).sum(),
            _ => 0,
        };
        std::mem::size_of::<Value>() + inner
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(d: f64) -> Self {
        Value::Double(d)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<Point> for Value {
    fn from(p: Point) -> Self {
        Value::Point(p)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}
impl From<Object> for Value {
    fn from(o: Object) -> Self {
        Value::Object(o)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::print::to_adm_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_set_get_replace() {
        let mut o = Object::new();
        o.set("a", Value::Int(1));
        o.set("b", Value::from("x"));
        assert_eq!(o.get("a"), Some(&Value::Int(1)));
        o.set("a", Value::Int(2));
        assert_eq!(o.len(), 2, "replace must not duplicate");
        assert_eq!(o.get("a"), Some(&Value::Int(2)));
        assert_eq!(o.remove("b"), Some(Value::from("x")));
        assert!(o.get("b").is_none());
    }

    #[test]
    fn field_navigation_yields_missing() {
        let v = Value::object(vec![("x".into(), Value::Int(5))]);
        assert_eq!(v.field("x"), &Value::Int(5));
        assert_eq!(v.field("nope"), &Value::Missing);
        assert_eq!(Value::Int(3).field("x"), &Value::Missing);
        assert_eq!(Value::Array(vec![Value::Int(9)]).index(0), &Value::Int(9));
        assert_eq!(Value::Array(vec![]).index(2), &Value::Missing);
        assert_eq!(Value::Null.index(0), &Value::Missing);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Double(4.0).as_i64(), Some(4));
        assert_eq!(Value::Double(4.5).as_i64(), None);
        assert_eq!(Value::from("s").as_f64(), None);
    }

    #[test]
    fn tags_distinguish_missing_null() {
        assert!(TypeTag::Missing < TypeTag::Null);
        assert!(TypeTag::Null < TypeTag::Number);
        assert_eq!(Value::Int(1).tag(), Value::Double(1.0).tag());
        assert_eq!(Value::Int(1).type_name(), "int64");
        assert_eq!(Value::Double(1.0).type_name(), "double");
    }

    #[test]
    fn heap_size_grows_with_content() {
        let small = Value::from("ab");
        let big = Value::from("a".repeat(100));
        assert!(big.heap_size() > small.heap_size());
        let arr = Value::Array(vec![Value::Int(1); 10]);
        assert!(arr.heap_size() >= 10 * std::mem::size_of::<Value>());
    }
}
