//! Schema-compressed record encoding.
//!
//! AsterixDB's physical record layout splits an object into a *closed part* —
//! the fields declared by the dataset's type, stored positionally without
//! their names — and an *open part* carrying any undeclared fields with
//! self-describing names (paper Section III: open types "carry additional
//! (self-describing) record content"). Declaring schema therefore buys
//! storage compactness; experiment E10 measures exactly that difference.
//!
//! Layout: `[n_declared][presence bitmap][declared values...]`
//! `[n_open][open name-length name value...]`, the two counts and each
//! name's length LEB128 varints ([`crate::binary::put_varint`]; one byte
//! below 128) and each value as [`crate::binary::encode_into`] writes it —
//! an `int` as a zigzag varint. Absent optional fields are encoded as a
//! cleared presence bit (zero bytes of payload).
//!
//! This *row* is what a write encodes, once: what the log carries, what a
//! memory component holds and what a before-image is. A primary index's disk
//! components do not store it as such — [`crate::layout`] takes it apart
//! into one cell per declared field and the open part, which are stored
//! column by column, and puts it together again byte for byte — so the
//! count, the bitmap and the tags above are paid per record in memory and in
//! the log, and per group of records on disk.

use crate::binary::{encode_into, put_varint, Decoder};
use crate::error::{AdmError, Result};
use crate::types::ObjectType;
use crate::value::{Object, Value};

/// Encodes an object against `ty`: declared fields positionally (no names),
/// undeclared fields self-describing. The object must already be cast to the
/// type (declared fields first, see `validate::cast_object`).
pub fn encode_with_schema(value: &Value, ty: &ObjectType) -> Result<Vec<u8>> {
    let obj = value
        .as_object()
        .ok_or_else(|| AdmError::Type(format!("expected object, got {}", value.type_name())))?;
    let mut out = Vec::with_capacity(64);
    let n = ty.fields.len();
    put_varint(&mut out, n as u64);
    // presence bitmap
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    for (i, f) in ty.fields.iter().enumerate() {
        if obj.get(&f.name).is_some_and(|v| !v.is_missing()) {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for f in &ty.fields {
        if let Some(v) = obj.get(&f.name) {
            if !v.is_missing() {
                encode_into(v, &mut out);
            }
        }
    }
    // open part
    let open: Vec<(&str, &Value)> = obj
        .iter()
        .filter(|(k, _)| ty.field(k).is_none())
        .collect();
    put_varint(&mut out, open.len() as u64);
    for (k, v) in open {
        put_varint(&mut out, k.len() as u64);
        out.extend_from_slice(k.as_bytes());
        encode_into(v, &mut out);
    }
    Ok(out)
}

/// Decodes a record produced by [`encode_with_schema`] with the same type.
pub fn decode_with_schema(buf: &[u8], ty: &ObjectType) -> Result<Value> {
    decode_fields_with_schema(buf, ty, &[])
}

/// What a reader wants of a record's open part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpenFields<'a> {
    /// Nothing: the open part is not read.
    None,
    /// The fields with these names.
    Named(&'a [String]),
    /// Every field.
    All,
}

/// [`decode_with_schema`] for a reader that wants only the top-level fields
/// named in `fields` (every field when `fields` is empty): the names are
/// resolved against `ty` here, once per call. A reader that decodes many
/// records resolves once ([`crate::layout::RecordLayout::resolve`]) and hands
/// the ordinals to [`crate::layout::RecordLayout::decode_row`].
pub fn decode_fields_with_schema(buf: &[u8], ty: &ObjectType, fields: &[String]) -> Result<Value> {
    if fields.is_empty() {
        let all: Vec<usize> = (0..ty.fields.len()).collect();
        return decode_ordinals_with_schema(buf, ty, &all, OpenFields::All);
    }
    let declared: Vec<usize> =
        (0..ty.fields.len()).filter(|&i| fields.contains(&ty.fields[i].name)).collect();
    let open: Vec<String> = fields.iter().filter(|f| ty.field(f).is_none()).cloned().collect();
    let open = if open.is_empty() { OpenFields::None } else { OpenFields::Named(&open) };
    decode_ordinals_with_schema(buf, ty, &declared, open)
}

/// Decodes of a record the declared fields at the positions `wanted`
/// (ascending) and `open` of its open part. A declared field is found by its
/// position — the others are stepped over, and reading stops at the last one
/// wanted; the open part is searched only for names the type does not
/// declare, and only until each is found.
pub(crate) fn decode_ordinals_with_schema(
    buf: &[u8],
    ty: &ObjectType,
    wanted: &[usize],
    open: OpenFields<'_>,
) -> Result<Value> {
    let mut d = Decoder::new(buf);
    let n = d.varint()?;
    if n != ty.fields.len() as u64 {
        return Err(AdmError::Serde(format!(
            "schema mismatch: record has {n} declared fields, type {} has {}",
            ty.name,
            ty.fields.len()
        )));
    }
    let n = ty.fields.len();
    let bitmap = d.take(n.div_ceil(8))?;
    if !n.is_multiple_of(8) && bitmap[n / 8] >> (n % 8) != 0 {
        return Err(AdmError::Serde(format!("presence bits past the {n} declared fields")));
    }
    let mut obj = Object::with_capacity(wanted.len());
    let mut wanted = wanted.iter().copied().peekable();
    for (i, f) in ty.fields.iter().enumerate() {
        if wanted.peek().is_none() && open == OpenFields::None {
            return Ok(Value::Object(obj));
        }
        let present = bitmap[i / 8] & (1 << (i % 8)) != 0;
        if wanted.next_if_eq(&i).is_some() {
            if present {
                obj.set(f.name.clone(), d.value()?);
            }
        } else if present {
            d.skip_value()?;
        }
    }
    if open == OpenFields::None {
        return Ok(Value::Object(obj));
    }
    decode_open_part(&mut d, open, &mut obj)?;
    Ok(Value::Object(obj))
}

/// Reads into `obj` the fields `open` names of the open part `d` stands at
/// the count of. Reading stops once every name has been found.
pub(crate) fn decode_open_part(d: &mut Decoder<'_>, open: OpenFields<'_>, obj: &mut Object) -> Result<()> {
    let mut unresolved = match open {
        OpenFields::None => return Ok(()),
        OpenFields::Named(names) => names.len(),
        OpenFields::All => usize::MAX,
    };
    let n_open = d.len()?;
    for _ in 0..n_open {
        let klen = d.len()?;
        let kbytes = d.take(klen)?;
        // a name the open part carries is one the type does not declare
        if matches!(open, OpenFields::Named(names) if !names.iter().any(|f| f.as_bytes() == kbytes)) {
            d.skip_value()?;
            continue;
        }
        let key = std::str::from_utf8(kbytes)
            .map_err(|_| AdmError::Serde("invalid UTF-8 in open field name".into()))?
            .to_owned();
        obj.set(key, d.value()?);
        unresolved -= 1;
        if unresolved == 0 {
            return Ok(());
        }
    }
    if !d.is_done() {
        return Err(AdmError::Serde("trailing bytes after schema-encoded record".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_value;
    use crate::types::{gleambook_types, Field, ObjectType, TypeExpr, TypeRegistry};
    use crate::validate::cast_object;

    fn roundtrip(v: &Value, ty: &ObjectType) -> usize {
        let bytes = encode_with_schema(v, ty).unwrap();
        let back = decode_with_schema(&bytes, ty).unwrap();
        assert!(crate::compare::adm_eq(v, &back), "{v:?} -> {back:?}");
        bytes.len()
    }

    #[test]
    fn declared_fields_drop_names() {
        let mut reg = TypeRegistry::new();
        reg.define(ObjectType::open(
            "T",
            vec![
                Field::required("aVeryLongFieldName", TypeExpr::named("int")),
                Field::optional("anotherVeryLongFieldName", TypeExpr::named("string")),
            ],
        ))
        .unwrap();
        let ty = reg.get("T").unwrap();
        let v = parse_value(r#"{"aVeryLongFieldName": 1, "anotherVeryLongFieldName": "x"}"#)
            .unwrap();
        let cast = cast_object(&v, ty, &reg).unwrap();
        let schema_len = roundtrip(&cast, ty);
        let plain_len = crate::binary::encode(&cast).len();
        assert!(
            schema_len < plain_len,
            "schema {schema_len} bytes vs self-describing {plain_len}"
        );
    }

    #[test]
    fn open_fields_still_roundtrip() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let v = parse_value(
            r#"{"id":1, "alias":"a", "name":"n",
                "userSince": datetime("2012-01-01T00:00:00"),
                "friendIds": {{1,2}}, "employment": [],
                "nickname": "nick", "gender": "M"}"#,
        )
        .unwrap();
        let cast = cast_object(&v, ty, &reg).unwrap();
        let n = roundtrip(&cast, ty);
        // undeclared fields cost their names inline
        let v2 = parse_value(
            r#"{"id":1, "alias":"a", "name":"n",
                "userSince": datetime("2012-01-01T00:00:00"),
                "friendIds": {{1,2}}, "employment": []}"#,
        )
        .unwrap();
        let cast2 = cast_object(&v2, ty, &reg).unwrap();
        let n2 = roundtrip(&cast2, ty);
        assert!(n > n2 + "nickname".len() + "gender".len());
    }

    #[test]
    fn absent_optional_fields_cost_one_bit() {
        let mut reg = TypeRegistry::new();
        reg.define(ObjectType::open(
            "T",
            vec![
                Field::required("id", TypeExpr::named("int")),
                Field::optional("opt1", TypeExpr::named("string")),
                Field::optional("opt2", TypeExpr::named("string")),
            ],
        ))
        .unwrap();
        let ty = reg.get("T").unwrap();
        let v = cast_object(&parse_value(r#"{"id": 1}"#).unwrap(), ty, &reg).unwrap().into_owned();
        let len = roundtrip(&v, ty);
        // declared count 1 + bitmap 1 + int (tag and one-byte varint) 2 +
        // open count 1 = 5
        assert_eq!(len, 5);
    }

    #[test]
    fn schema_mismatch_is_detected() {
        let mut reg = TypeRegistry::new();
        reg.define(ObjectType::open("A", vec![Field::required("x", TypeExpr::named("int"))]))
            .unwrap();
        reg.define(ObjectType::open(
            "B",
            vec![
                Field::required("x", TypeExpr::named("int")),
                Field::required("y", TypeExpr::named("int")),
            ],
        ))
        .unwrap();
        let a = reg.get("A").unwrap();
        let b = reg.get("B").unwrap();
        let v = cast_object(&parse_value(r#"{"x": 1}"#).unwrap(), a, &reg).unwrap().into_owned();
        let bytes = encode_with_schema(&v, a).unwrap();
        assert!(decode_with_schema(&bytes, b).is_err());
        assert!(decode_with_schema(&bytes[..3], a).is_err(), "truncated");
    }
}
