//! Total ordering, equality, and hashing over [`Value`]s.
//!
//! Indexes, sort operators, and hash-partitioning exchanges all need a single
//! consistent comparison/hash contract:
//!
//! * a **total order** across *all* values (cross-type ordering by
//!   [`TypeTag`] ordinal, so heterogeneous keys sort deterministically);
//! * numeric comparison across `Int`/`Double` (`2 < 2.5 < 3`);
//! * a hash that agrees with equality (`hash(Int(2)) == hash(Double(2.0))`),
//!   required for hash joins and hash-partition exchanges to line up with
//!   equality predicates.
//!
//! `MISSING < NULL < everything`, matching AsterixDB's index order.

#![allow(
    clippy::disallowed_methods,
    reason = "these hashes route tuples and key hash tables in memory; nothing persisted depends on them"
)]

use crate::temporal::Duration;
use crate::value::{TypeTag, Value};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Compares two values under the ADM total order.
pub fn total_cmp(a: &Value, b: &Value) -> Ordering {
    let (ta, tb) = (a.tag(), b.tag());
    if ta != tb {
        return ta.cmp(&tb);
    }
    match (a, b) {
        (Value::Missing, Value::Missing) | (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ if ta == TypeTag::Number => numeric_cmp(a, b),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Time(x), Value::Time(y)) => x.cmp(y),
        (Value::DateTime(x), Value::DateTime(y)) => x.cmp(y),
        (Value::Duration(x), Value::Duration(y)) => {
            duration_rank(x).cmp(&duration_rank(y)).then(x.months.cmp(&y.months)).then(x.millis.cmp(&y.millis))
        }
        (Value::Point(x), Value::Point(y)) => x
            .x
            .total_cmp(&y.x)
            .then(x.y.total_cmp(&y.y)),
        (Value::Rectangle(x), Value::Rectangle(y)) => x
            .min
            .x
            .total_cmp(&y.min.x)
            .then(x.min.y.total_cmp(&y.min.y))
            .then(x.max.x.total_cmp(&y.max.x))
            .then(x.max.y.total_cmp(&y.max.y)),
        (Value::Uuid(x), Value::Uuid(y)) => x.cmp(y),
        (Value::Binary(x), Value::Binary(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) | (Value::Multiset(x), Value::Multiset(y)) => {
            for (xa, ya) in x.iter().zip(y.iter()) {
                let c = total_cmp(xa, ya);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Object(x), Value::Object(y)) => {
            // Order objects by sorted (key, value) pairs so equality is
            // field-order-insensitive and the order is still total.
            let mut xs: Vec<_> = x.iter().collect();
            let mut ys: Vec<_> = y.iter().collect();
            xs.sort_by(|a, b| a.0.cmp(b.0));
            ys.sort_by(|a, b| a.0.cmp(b.0));
            for ((kx, vx), (ky, vy)) in xs.iter().zip(ys.iter()) {
                let c = kx.cmp(ky).then_with(|| total_cmp(vx, vy));
                if c != Ordering::Equal {
                    return c;
                }
            }
            xs.len().cmp(&ys.len())
        }
        _ => unreachable!("tags matched but variants did not"),
    }
}

/// What durations order by first: approximate total millis (month ≈ 30
/// days). Ties go to the months, then the millis.
pub(crate) fn duration_rank(d: &Duration) -> i64 {
    (d.months as i64 * 30 * crate::temporal::MILLIS_PER_DAY).wrapping_add(d.millis)
}

fn numeric_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Double(x), Value::Double(y)) => x.total_cmp(y),
        (Value::Int(x), Value::Double(y)) => int_double_cmp(*x, *y),
        (Value::Double(x), Value::Int(y)) => int_double_cmp(*y, *x).reverse(),
        _ => unreachable!(),
    }
}

/// Exact Int-vs-Double comparison (no precision loss for |i| > 2^53).
fn int_double_cmp(i: i64, d: f64) -> Ordering {
    // 2^63, the first double above every i64: `as i64` would saturate it
    // (and +inf) onto `i64::MAX`
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if d.is_nan() || d >= TWO_POW_63 {
        // NaN sorts above all numbers under total order.
        return Ordering::Less;
    }
    if d < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // Compare integer parts first; fall back to fractional tiebreak.
    let fi = i as f64;
    match fi.partial_cmp(&d).unwrap() {
        Ordering::Equal => {
            // fi == d under float compare; resolve exactly via truncation.
            let di = d.trunc() as i64;
            i.cmp(&di).then_with(|| {
                if d.fract() > 0.0 {
                    Ordering::Less
                } else if d.fract() < 0.0 {
                    Ordering::Greater
                } else {
                    Ordering::Equal
                }
            })
        }
        other => other,
    }
}

/// Equality under the ADM order (ties in [`total_cmp`]); `Int(2) == Double(2.0)`.
pub fn adm_eq(a: &Value, b: &Value) -> bool {
    total_cmp(a, b) == Ordering::Equal
}

/// Hashes a value consistently with [`adm_eq`]. Numbers hash via their
/// mathematical value (integral doubles hash like ints), so hash joins and
/// hash-partition exchanges agree with equality.
pub fn adm_hash<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Missing => 0u8.hash(state),
        Value::Null => 1u8.hash(state),
        Value::Bool(b) => {
            2u8.hash(state);
            b.hash(state);
        }
        Value::Int(i) => {
            3u8.hash(state);
            i.hash(state);
        }
        Value::Double(d) => {
            3u8.hash(state);
            if d.fract() == 0.0 && d.abs() < 9.2e18 {
                (*d as i64).hash(state);
            } else {
                d.to_bits().hash(state);
            }
        }
        Value::String(s) => {
            4u8.hash(state);
            s.hash(state);
        }
        Value::Date(d) => {
            5u8.hash(state);
            d.hash(state);
        }
        Value::Time(t) => {
            6u8.hash(state);
            t.hash(state);
        }
        Value::DateTime(t) => {
            7u8.hash(state);
            t.hash(state);
        }
        Value::Duration(d) => {
            8u8.hash(state);
            d.hash(state);
        }
        Value::Point(p) => {
            9u8.hash(state);
            p.x.to_bits().hash(state);
            p.y.to_bits().hash(state);
        }
        Value::Rectangle(r) => {
            10u8.hash(state);
            r.min.x.to_bits().hash(state);
            r.min.y.to_bits().hash(state);
            r.max.x.to_bits().hash(state);
            r.max.y.to_bits().hash(state);
        }
        Value::Uuid(u) => {
            11u8.hash(state);
            u.hash(state);
        }
        Value::Binary(b) => {
            12u8.hash(state);
            b.hash(state);
        }
        Value::Array(items) => {
            13u8.hash(state);
            items.len().hash(state);
            for i in items {
                adm_hash(i, state);
            }
        }
        Value::Multiset(items) => {
            // Order-insensitive: XOR of element hashes, so {{1,2}} == {{2,1}}
            // hash identically (multiset equality is handled by total_cmp on
            // sorted views at higher layers; hashing stays conservative).
            14u8.hash(state);
            items.len().hash(state);
            let mut acc: u64 = 0;
            for i in items {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                adm_hash(i, &mut h);
                acc ^= h.finish();
            }
            acc.hash(state);
        }
        Value::Object(o) => {
            15u8.hash(state);
            o.len().hash(state);
            let mut acc: u64 = 0;
            for (k, v) in o.iter() {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                k.hash(&mut h);
                adm_hash(v, &mut h);
                acc ^= h.finish();
            }
            acc.hash(state);
        }
    }
}

/// One-shot 64-bit hash of a value (used for hash partitioning).
pub fn hash64(v: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    adm_hash(v, &mut h);
    h.finish()
}

/// Hash of a composite key (multiple values) for multi-column partitioning.
pub fn hash64_slice(vs: &[Value]) -> u64 {
    hash64_iter(vs.iter(), vs.len())
}

/// Hash of a composite key given by reference, without materializing it.
/// Produces exactly the same hash as [`hash64_slice`] over the collected
/// values, so partition routing stays consistent across both paths.
pub fn hash64_iter<'a>(vs: impl Iterator<Item = &'a Value>, len: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    len.hash(&mut h);
    for v in vs {
        adm_hash(v, &mut h);
    }
    h.finish()
}

/// A wrapper giving `Value` the `Ord`/`Hash` impls of the ADM contract, so it
/// can key `BTreeMap`/`HashMap` collections directly.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}
impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        total_cmp(&self.0, &other.0)
    }
}
impl Hash for OrdValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        adm_hash(&self.0, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::Point;

    #[test]
    fn hash64_iter_matches_hash64_slice() {
        let row = [
            Value::Int(42),
            Value::from("key"),
            Value::Double(2.0),
            Value::Null,
        ];
        let cols = [0usize, 2, 1];
        let key: Vec<Value> = cols.iter().map(|c| row[*c].clone()).collect();
        assert_eq!(
            hash64_slice(&key),
            hash64_iter(cols.iter().map(|c| &row[*c]), cols.len()),
            "by-reference hashing must route identically to materialized keys"
        );
    }

    #[test]
    fn cross_type_order_follows_tags() {
        let seq = [
            Value::Missing,
            Value::Null,
            Value::Bool(false),
            Value::Int(-5),
            Value::from("a"),
            Value::Date(0),
            Value::Point(Point::new(0.0, 0.0)),
            Value::Array(vec![]),
            Value::object(vec![]),
        ];
        for w in seq.windows(2) {
            assert_eq!(total_cmp(&w[0], &w[1]), Ordering::Less, "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn numeric_cross_type() {
        assert_eq!(total_cmp(&Value::Int(2), &Value::Double(2.5)), Ordering::Less);
        assert_eq!(total_cmp(&Value::Double(2.5), &Value::Int(3)), Ordering::Less);
        assert!(adm_eq(&Value::Int(2), &Value::Double(2.0)));
        assert_eq!(hash64(&Value::Int(2)), hash64(&Value::Double(2.0)));
        // Exactness near 2^53: 2^53 and 2^53+1 both round to the same double.
        let big = (1i64 << 53) + 1;
        assert_eq!(
            total_cmp(&Value::Int(big), &Value::Double((1i64 << 53) as f64)),
            Ordering::Greater
        );
        // 2^63 rounds from i64::MAX but is above it
        assert_eq!(total_cmp(&Value::Int(i64::MAX), &Value::Double(9_223_372_036_854_775_808.0)), Ordering::Less);
        // NaN sorts above all numbers, infinities at the ends.
        assert_eq!(total_cmp(&Value::Int(i64::MAX), &Value::Double(f64::NAN)), Ordering::Less);
        assert_eq!(
            total_cmp(&Value::Double(f64::NEG_INFINITY), &Value::Int(i64::MIN)),
            Ordering::Less
        );
    }

    #[test]
    fn array_lexicographic() {
        let a = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::Array(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::Array(vec![Value::Int(1)]);
        assert_eq!(total_cmp(&a, &b), Ordering::Less);
        assert_eq!(total_cmp(&c, &a), Ordering::Less, "prefix sorts first");
    }

    #[test]
    fn object_equality_field_order_insensitive() {
        let a = Value::object(vec![("x".into(), Value::Int(1)), ("y".into(), Value::Int(2))]);
        let b = Value::object(vec![("y".into(), Value::Int(2)), ("x".into(), Value::Int(1))]);
        assert!(adm_eq(&a, &b));
        assert_eq!(hash64(&a), hash64(&b));
    }

    #[test]
    fn string_order() {
        assert_eq!(total_cmp(&Value::from("abc"), &Value::from("abd")), Ordering::Less);
        assert_eq!(total_cmp(&Value::from(""), &Value::from("a")), Ordering::Less);
    }

    #[test]
    fn ord_value_in_btreemap() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(OrdValue(Value::Int(5)), "five");
        m.insert(OrdValue(Value::Int(1)), "one");
        m.insert(OrdValue(Value::from("s")), "str");
        let keys: Vec<_> = m.keys().map(|k| k.0.clone()).collect();
        assert_eq!(keys[0], Value::Int(1));
        assert_eq!(keys[1], Value::Int(5));
        assert_eq!(keys[2], Value::from("s"));
        assert_eq!(m.get(&OrdValue(Value::Double(5.0))), Some(&"five"));
    }
}
