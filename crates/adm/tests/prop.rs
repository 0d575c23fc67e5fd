//! Property-based tests for the ADM data model: serialization round-trips,
//! comparator laws, and key-encoding order consistency.

use asterix_adm::binary::{decode, decode_key, encode, encode_key, key_prefix_end, prepend_key_part, strip_key_part};
use asterix_adm::compare::{adm_eq, hash64, total_cmp, OrdValue};
use asterix_adm::fsst::{Encoder, SymbolTable};
use asterix_adm::layout::ColumnKind;
use asterix_adm::parse::parse_value;
use asterix_adm::print::to_adm_string;
use asterix_adm::temporal::Duration;
use asterix_adm::types::{Field, ObjectType, TypeExpr};
use asterix_adm::AdmError;
use asterix_adm::{BatchBuilder, Cells, Column, ColumnBatch, Object, Point, RecordLayout, Rectangle, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

/// Strategy generating arbitrary ADM values with bounded depth.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Missing),
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles keep printing/parsing round-trips exact.
        (-1e15f64..1e15f64).prop_map(Value::Double),
        "[a-zA-Z0-9 _#é]{0,12}".prop_map(Value::String),
        (-100_000i32..100_000).prop_map(Value::Date),
        (0i32..86_400_000).prop_map(Value::Time),
        (-4_000_000_000_000i64..4_000_000_000_000).prop_map(Value::DateTime),
        ((-240i32..240), (-1_000_000i64..1_000_000))
            .prop_map(|(months, millis)| Value::Duration(Duration { months, millis })),
        ((-180.0f64..180.0), (-90.0f64..90.0))
            .prop_map(|(x, y)| Value::Point(Point::new(x, y))),
        prop::collection::vec(any::<u8>(), 0..8).prop_map(Value::Binary),
        any::<[u8; 16]>().prop_map(Value::Uuid),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Multiset),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..4)
                .prop_map(|pairs| Value::Object(Object::from_pairs(pairs))),
        ]
    })
}

/// Element-wise `total_cmp`, a key that is a prefix of the other first.
fn parts_cmp(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| total_cmp(x, y))
        .find(|c| c.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// The values `arb_value` leaves out: the edges of every numeric form and
/// the bytes the key encoding gives a meaning to.
fn edge_parts() -> Vec<Value> {
    let two53 = 1i64 << 53;
    let mut out = vec![
        Value::Missing,
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Double(f64::NAN),
        Value::Double(f64::INFINITY),
        Value::Double(f64::NEG_INFINITY),
        Value::Double(f64::MAX),
        Value::Double(f64::MIN),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(f64::MIN_POSITIVE),
        Value::Double(-f64::MIN_POSITIVE),
        Value::Double(5e-324),
        Value::Double(-5e-324),
        Value::Double(9.3e18),
        Value::Double(-9.3e18),
        // 2^63 is a double and no i64; -2^63 is both
        Value::Double(9_223_372_036_854_775_808.0),
        Value::Double(-9_223_372_036_854_775_808.0),
        Value::Double(9.1e18),
        Value::Int(9_100_000_000_000_000_000),
        Value::Int(i64::MIN),
        Value::Int(i64::MIN + 1),
        Value::Int(i64::MAX),
        Value::Int(i64::MAX - 1),
        Value::from(""),
        Value::from("\0"),
        Value::from("a"),
        Value::from("a\0"),
        Value::from("a\0b"),
        Value::from("a\u{1}"),
        Value::from("ab"),
        Value::Binary(vec![]),
        Value::Binary(vec![0]),
        Value::Binary(vec![0, 0xFF]),
        Value::Binary(vec![0, 0]),
        Value::Binary(vec![0xFF]),
        Value::Binary(vec![0xFF, 0]),
        Value::Date(i32::MIN),
        Value::Date(i32::MAX),
        Value::Time(0),
        Value::DateTime(i64::MIN),
        Value::DateTime(i64::MAX),
        Value::Duration(Duration { months: 1, millis: 0 }),
        Value::Duration(Duration { months: 0, millis: 30 * 86_400_000 }),
        Value::Duration(Duration { months: -1, millis: 1 }),
        Value::Point(Point::new(-0.0, f64::INFINITY)),
        Value::Point(Point::new(0.0, f64::NEG_INFINITY)),
        Value::Uuid([0; 16]),
        Value::Uuid([0xFF; 16]),
        Value::Array(vec![]),
        Value::Array(vec![Value::Int(2)]),
        Value::Array(vec![Value::Double(2.5)]),
        Value::Array(vec![Value::Int(2), Value::Missing]),
        Value::Array(vec![Value::from("")]),
        Value::Array(vec![Value::Array(vec![])]),
        Value::Multiset(vec![]),
        Value::Multiset(vec![Value::Double(2.0)]),
        Value::object(vec![]),
        Value::object(vec![("".into(), Value::Int(1))]),
        Value::object(vec![("a".into(), Value::Int(1)), ("b".into(), Value::Double(1.5))]),
        Value::object(vec![("b".into(), Value::Double(1.5)), ("a".into(), Value::Int(1))]),
        Value::object(vec![("a\0".into(), Value::Int(1))]),
    ];
    for n in [two53 - 1, two53, two53 + 1, -two53 - 1, -two53, -two53 + 1] {
        out.push(Value::Int(n));
        out.push(Value::Double(n as f64));
    }
    for n in [-3i64, -1, 0, 1, 2, 1 << 40] {
        out.push(Value::Int(n));
        out.push(Value::Double(n as f64 + 0.5));
        out.push(Value::Double(n as f64 - 0.5));
    }
    out
}

/// Every pair of edge values, alone and as the head or the tail of a
/// composite: the bytes order as `total_cmp` orders the parts a key holds —
/// the normalised ones, a whole double being the integer it equals (`-0.0`
/// and `0.0`, which `total_cmp` tells apart as doubles, are both `0`) — and
/// come back.
#[test]
fn key_bytes_order_like_total_cmp_at_the_edges() {
    let parts: Vec<Value> = edge_parts()
        .into_iter()
        .map(|v| {
            let mut back = decode_key(&encode_key(std::slice::from_ref(&v))).unwrap();
            assert_eq!(back.len(), 1, "{v:?}");
            assert!(adm_eq(&back[0], &v), "{v:?} -> {back:?}");
            back.remove(0)
        })
        .collect();
    for a in &parts {
        for b in &parts {
            let lone = (vec![a.clone()], vec![b.clone()]);
            let headed = (vec![a.clone(), Value::Int(7)], vec![b.clone()]);
            let both = (vec![a.clone(), Value::Int(7)], vec![b.clone(), Value::Int(-7)]);
            let tailed = (vec![Value::from("k"), a.clone()], vec![Value::from("k"), b.clone()]);
            for (x, y) in [lone, headed, both, tailed] {
                assert_eq!(encode_key(&x).cmp(&encode_key(&y)), parts_cmp(&x, &y), "{x:?} vs {y:?}");
            }
        }
    }
}

/// `record` with only the fields named in `names` (all when there are none).
fn keep(record: &Value, names: &[String]) -> Value {
    let fields = record.as_object().unwrap().iter();
    Value::Object(Object::from_pairs(
        fields.filter(|(k, _)| names.is_empty() || names.iter().any(|n| n == k)).map(|(k, v)| (k, v.clone())),
    ))
}

/// A declared field of kind `kind` — every primitive, `any`, a collection, a
/// nested type — and a value of that type made of the ingredients given: an
/// `int` column gets `i64::MIN` and `i64::MAX` among its values, a string
/// column the empty string.
fn typed_field(kind: usize, i: i64, text: &str, any: &Value) -> (TypeExpr, Value) {
    let named = TypeExpr::named;
    let f = i as f64 / 7.0;
    match kind % 16 {
        0 => (named("int"), Value::Int([i, i64::MIN, i64::MAX, 0, i % 1_000][i.rem_euclid(5) as usize])),
        1 => (named("double"), Value::Double(f)),
        2 => (named("string"), Value::from(text)),
        3 => (named("boolean"), Value::Bool(i % 2 == 0)),
        4 => (named("date"), Value::Date(i as i32)),
        5 => (named("time"), Value::Time((i as i32).rem_euclid(86_400_000))),
        6 => (named("datetime"), Value::DateTime(i)),
        7 => (named("duration"), Value::Duration(Duration { months: i as i32 % 50, millis: i % 100_000 })),
        8 => (named("point"), Value::Point(Point::new(f, -f))),
        9 => (named("rectangle"), Value::Rectangle(Rectangle::new(Point::new(f, f), Point::new(f + 1.0, f + 2.0)))),
        10 => (named("uuid"), Value::Uuid([i as u8; 16])),
        11 => (named("binary"), Value::Binary(text.as_bytes().to_vec())),
        12 => (TypeExpr::any(), any.clone()),
        13 => (TypeExpr::Array(Box::new(named("int"))), Value::Array(vec![Value::Int(i); i.rem_euclid(3) as usize])),
        14 => (TypeExpr::Multiset(Box::new(named("string"))), Value::Multiset(vec![Value::from(text)])),
        _ => (named("Inner"), Value::object(vec![("x".into(), Value::Int(i)), ("deep".into(), any.clone())])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A row taken apart into cells goes back together byte for byte, and
    /// the record built from the cells a reader names, like the one decoded
    /// from the row, is the stored record's fields under those names: over
    /// declared fields of every kind (optional ones absent or `null`), open
    /// fields, and a type that declares none of them. A cut row is an error
    /// or comes back as it was cut; nothing panics.
    #[test]
    fn a_row_as_cells_reads_like_the_row(
        declared in prop::collection::vec(
            (0usize..16, 0u8..4, any::<i64>(), "[a-z ]{0,9}", arb_value()), 0..10),
        open in prop::collection::vec(arb_value(), 0..3),
        picks in prop::collection::vec(0usize..64, 0..5),
    ) {
        let mut fields = Vec::new();
        let mut record = Object::new();
        for (n, (kind, presence, i, text, any)) in declared.iter().enumerate() {
            let (ty, value) = typed_field(*kind, *i, text, any);
            // 0: a required field; else optional: there, a `null`, or absent
            fields.push(Field { name: format!("d{n}"), ty, optional: *presence != 0 });
            // a declared field that is `missing` is one the record lacks
            match presence {
                0 | 1 if !value.is_missing() => record.set(format!("d{n}"), value),
                2 => record.set(format!("d{n}"), Value::Null),
                _ => {}
            }
        }
        for (n, v) in open.iter().enumerate() {
            record.set(format!("o{n}"), v.clone());
        }
        let ty = ObjectType::open("T", fields);
        let record = Value::Object(record);
        let mut pool: Vec<String> = ty.fields.iter().map(|f| f.name.clone()).collect();
        pool.extend((0..open.len()).map(|n| format!("o{n}")));
        pool.push("nope".into());
        let mut names: Vec<String> = picks.iter().map(|p| pool[p % pool.len()].clone()).collect();
        names.sort();
        names.dedup();

        let undeclared = ObjectType::open("U", Vec::new());
        for ty in [&ty, &undeclared] {
            let layout = &RecordLayout::new(ty);
            let row = &layout.encode(&record).unwrap();
            let mut cells = Cells::default();
            layout.shred(row, &mut cells).unwrap();
            prop_assert_eq!(cells.len(), layout.cell_count());
            let mut back = Vec::new();
            layout.assemble(&cells, &mut back);
            prop_assert_eq!(&back, row);

            for names in [&names, &Vec::new()] {
                let wanted = layout.resolve(names);
                let mut picked = Cells::default();
                for &cell in wanted.cells() {
                    picked.push(cells.get(cell));
                }
                let want = keep(&record, names);
                prop_assert_eq!(&layout.project(&wanted, &picked).unwrap(), &want, "cells of {:?}", names);
                prop_assert_eq!(&layout.decode_row(&wanted, row).unwrap(), &want, "row, for {:?}", names);

                // and as a batch — a column per name, the record whole
                // without any — filled from the row and from its cells
                let columns: Vec<Value> = match names.as_slice() {
                    [] => vec![want.clone()],
                    names => names.iter().map(|n| want.field(n).clone()).collect(),
                };
                let mut batch = BatchBuilder::new(layout, &wanted);
                batch.push_row(row).unwrap();
                if batch.is_columnar() {
                    for k in 0..wanted.cells().len() {
                        batch.cell_column(k).push_cell(picked.get(k)).unwrap();
                    }
                    batch.advance(1);
                } else {
                    batch.push_cells(&picked).unwrap();
                }
                let rows: Vec<Vec<Value>> = batch.finish().unwrap().into_rows().collect();
                prop_assert_eq!(&rows, &vec![columns.clone(), columns], "columns of {:?}", names);
                for cut in 0..row.len() {
                    let mut batch = BatchBuilder::new(layout, &wanted);
                    match batch.push_row(&row[..cut]) {
                        Ok(()) => prop_assert_eq!(batch.finish().unwrap().into_rows().next(), rows.first().cloned(), "cut at {}", cut),
                        Err(e) => prop_assert!(matches!(e, AdmError::Serde(_)), "cut at {}: {}", cut, e),
                    }
                }
            }
            for cut in 0..row.len() {
                match layout.shred(&row[..cut], &mut cells) {
                    Ok(()) => {
                        back.clear();
                        layout.assemble(&cells, &mut back);
                        prop_assert_eq!(&back, &row[..cut], "cut at {}", cut);
                    }
                    Err(e) => prop_assert!(matches!(e, AdmError::Serde(_)), "cut at {}: {}", cut, e),
                }
            }
        }
    }
}

/// The table trained on `strings`, or, when they have nothing to code, one
/// that has a symbol.
fn table_of(strings: &[String]) -> Arc<SymbolTable> {
    let strs: Vec<&str> = strings.iter().map(String::as_str).collect();
    Arc::new(SymbolTable::train(&strs).or_else(|| SymbolTable::train(&["-"])).unwrap())
}

/// `strings` coded under `table`, end to end, and the length of each one's codes.
fn coded(table: &SymbolTable, strings: &[String]) -> (Vec<u8>, Vec<usize>) {
    let (encoder, mut codes, mut lens) = (Encoder::new(table), Vec::new(), Vec::new());
    for s in strings {
        let before = codes.len();
        encoder.encode(s, &mut codes);
        lens.push(codes.len() - before);
    }
    (codes, lens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A column of coded strings answers row by row what the strings are —
    /// whatever comes between its runs of codes: rows without a value, a run
    /// coded under another table, a plain string, a value of another type —
    /// and so do the rows of a batch of it; codes that do not decode are
    /// refused and add nothing.
    #[test]
    fn a_coded_column_reads_like_its_strings(
        texts in prop::collection::vec("[a-d é日😀]{0,12}", 1..30),
        others in prop::collection::vec("[w-z ]{0,8}", 1..8),
        plan in prop::collection::vec(0u8..6, 1..12),
    ) {
        let (mine, theirs) = (table_of(&texts), table_of(&others));
        let mut column = Column::of_kind(ColumnKind::STRING);
        let mut want: Vec<Value> = Vec::new();
        for step in plan {
            match step {
                0 | 1 => {
                    let (codes, lens) = coded(&mine, &texts);
                    column.push_coded(&mine, &codes, lens.into_iter()).unwrap();
                    want.extend(texts.iter().map(|t| Value::from(t.as_str())));
                }
                2 => {
                    let (codes, lens) = coded(&theirs, &others);
                    column.push_coded(&theirs, &codes, lens.into_iter()).unwrap();
                    want.extend(others.iter().map(|t| Value::from(t.as_str())));
                }
                3 => {
                    column.push_absent();
                    want.push(Value::Missing);
                }
                4 => {
                    column.push_value(Value::from(texts[0].as_str()));
                    want.push(Value::from(texts[0].as_str()));
                }
                _ => {
                    // codes cut inside an escape (no string has a `€`), or a
                    // code past the table
                    let (mut codes, _) = coded(&mine, &["€".to_string()]);
                    codes.pop();
                    let rows = column.len();
                    prop_assert!(column.push_coded(&mine, &codes, [codes.len()].into_iter()).is_err());
                    prop_assert!(column.push_coded(&mine, &[254], [1].into_iter()).is_err() || mine.len() == 255);
                    prop_assert_eq!(column.len(), rows);
                }
            }
        }
        prop_assert_eq!(column.len(), want.len());
        for (i, v) in want.iter().enumerate() {
            prop_assert_eq!(&column.get(i), v, "row {}", i);
        }
        let rows = want.len();
        let batch = ColumnBatch::new(vec![column], rows).unwrap();
        let got: Vec<Value> = batch.into_rows().map(|mut row| row.remove(0)).collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A reader of a row that names the fields it wants gets the record's
    /// fields under those names, and the whole record when it names none —
    /// and the decoder does not panic on a cut or doctored row.
    #[test]
    fn projected_decode_is_full_decode_filtered(
        declared in prop::collection::vec((any::<bool>(), any::<bool>(), arb_value()), 0..12),
        open in prop::collection::vec(arb_value(), 0..4),
        picks in prop::collection::vec(0usize..64, 0..5),
    ) {
        // declared fields d0.. (an optional one may be absent), then open
        // fields o0..: the shape `cast_object` leaves a record in
        let ty = ObjectType::open(
            "T",
            declared
                .iter()
                .enumerate()
                .map(|(i, (optional, ..))| Field { name: format!("d{i}"), ty: TypeExpr::any(), optional: *optional })
                .collect(),
        );
        let mut record = Object::new();
        for (i, (optional, present, v)) in declared.iter().enumerate() {
            if (!optional || *present) && !v.is_missing() {
                record.set(format!("d{i}"), v.clone());
            }
        }
        for (i, v) in open.iter().enumerate() {
            record.set(format!("o{i}"), v.clone());
        }
        let record = Value::Object(record);
        // names to ask for: declared ones (present or absent), open ones,
        // and one no record has
        let mut pool: Vec<String> = ty.fields.iter().map(|f| f.name.clone()).collect();
        pool.extend((0..open.len()).map(|i| format!("o{i}")));
        pool.push("nope".into());
        let mut names: Vec<String> = picks.iter().map(|p| pool[p % pool.len()].clone()).collect();
        names.sort();
        names.dedup();

        let layout = RecordLayout::new(&ty);
        let (all, wanted) = (layout.resolve(&[]), layout.resolve(&names));
        let bytes = layout.encode(&record).unwrap();
        prop_assert_eq!(&layout.decode_row(&all, &bytes).unwrap(), &record);
        let projected = layout.decode_row(&wanted, &bytes).unwrap();
        prop_assert_eq!(&projected, &keep(&record, &names), "{:?}", names);

        // a cut row is an error to the full decoder; the projected one may
        // not have needed the missing bytes, and then answers the same
        for cut in 0..bytes.len() {
            prop_assert!(matches!(layout.decode_row(&all, &bytes[..cut]), Err(AdmError::Serde(_))), "cut at {}", cut);
            match layout.decode_row(&wanted, &bytes[..cut]) {
                Ok(v) => prop_assert_eq!(&v, &projected, "cut at {}", cut),
                Err(e) => prop_assert!(matches!(e, AdmError::Serde(_)), "cut at {}: {}", cut, e),
            }
        }
        // a field count or a presence bitmap that disagrees with the type
        let n = ty.fields.len();
        let mut miscounted = bytes.clone();
        miscounted[0] = miscounted[0].wrapping_add(1);
        prop_assert!(matches!(layout.decode_row(&wanted, &miscounted), Err(AdmError::Serde(_))));
        if !n.is_multiple_of(8) {
            let mut stray = bytes.clone();
            stray[1 + n / 8] |= 1 << (n % 8);
            prop_assert!(matches!(layout.decode_row(&wanted, &stray), Err(AdmError::Serde(_))));
        }
    }

    /// A value comes back from its bytes, and every cut of them is an error.
    #[test]
    fn binary_roundtrip(v in arb_value()) {
        let bytes = encode(&v);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(&v, &back);
        for cut in 0..bytes.len() {
            prop_assert!(matches!(decode(&bytes[..cut]), Err(AdmError::Serde(_))), "cut at {}", cut);
        }
    }

    #[test]
    fn text_roundtrip(v in arb_value()) {
        let text = to_adm_string(&v);
        let back = parse_value(&text).unwrap();
        // Text round-trip preserves ADM equality (objects may reorder under eq).
        prop_assert!(adm_eq(&v, &back), "{} -> {:?}", text, back);
    }

    #[test]
    fn total_order_is_antisymmetric_and_reflexive(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(total_cmp(&a, &a), Ordering::Equal);
        prop_assert_eq!(total_cmp(&a, &b), total_cmp(&b, &a).reverse());
    }

    #[test]
    fn total_order_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut vs = [a, b, c];
        vs.sort_by(total_cmp);
        prop_assert!(total_cmp(&vs[0], &vs[1]) != Ordering::Greater);
        prop_assert!(total_cmp(&vs[1], &vs[2]) != Ordering::Greater);
        prop_assert!(total_cmp(&vs[0], &vs[2]) != Ordering::Greater);
    }

    #[test]
    fn hash_consistent_with_equality(a in arb_value(), b in arb_value()) {
        if adm_eq(&a, &b) {
            prop_assert_eq!(hash64(&a), hash64(&b), "{:?} == {:?} must hash alike", a, b);
        }
    }

    /// A key comparison is a `memcmp`: the bytes of two keys order as
    /// `total_cmp` orders the values they were made of.
    #[test]
    fn encoded_key_order_matches_value_order(a in arb_value(), b in arb_value()) {
        let ka = encode_key(std::slice::from_ref(&a));
        let kb = encode_key(std::slice::from_ref(&b));
        prop_assert_eq!(ka.cmp(&kb), total_cmp(&a, &b));
    }

    #[test]
    fn composite_key_order_is_lexicographic(
        a in prop::collection::vec(arb_value(), 0..3), b in prop::collection::vec(arb_value(), 0..3),
        shared in prop::collection::vec(arb_value(), 0..2),
    ) {
        // a common head, so that one key is often a prefix of the other
        let a: Vec<Value> = shared.iter().cloned().chain(a).collect();
        let b: Vec<Value> = shared.into_iter().chain(b).collect();
        prop_assert_eq!(encode_key(&a).cmp(&encode_key(&b)), parts_cmp(&a, &b));
    }

    /// Decoding a key gives back parts that are ADM-equal to what went in
    /// and that encode to the same bytes; a part comes off the front of a
    /// key, and goes onto it, without the rest being looked at; and the keys
    /// a prefix starts are those between it and its end.
    #[test]
    fn keys_round_trip_and_take_parts_at_the_front(
        lead in arb_value(), rest in prop::collection::vec(arb_value(), 0..3), other in arb_value()
    ) {
        let tail = encode_key(&rest);
        let all: Vec<Value> = std::iter::once(lead.clone()).chain(rest).collect();
        let key = encode_key(&all);
        let back = decode_key(&key).unwrap();
        prop_assert_eq!(back.len(), all.len());
        prop_assert!(back.iter().zip(&all).all(|(x, y)| adm_eq(x, y)), "{:?} -> {:?}", all, back);
        prop_assert_eq!(&encode_key(&back), &key);
        prop_assert_eq!(&prepend_key_part(&lead, &tail), &key);
        prop_assert_eq!(strip_key_part(&key).unwrap(), tail.as_slice());
        // `other` starts `key` exactly when it equals its leading part
        let prefix = encode_key(std::slice::from_ref(&other));
        let within = prefix <= key && key < key_prefix_end(prefix);
        prop_assert_eq!(within, adm_eq(&other, &lead));
    }

    #[test]
    fn ord_value_sorts_like_total_cmp(mut vs in prop::collection::vec(arb_value(), 0..16)) {
        let mut wrapped: Vec<OrdValue> = vs.iter().cloned().map(OrdValue).collect();
        wrapped.sort();
        vs.sort_by(total_cmp);
        for (w, v) in wrapped.iter().zip(vs.iter()) {
            prop_assert!(adm_eq(&w.0, v));
        }
    }
}
