//! Schema-compressed record encoding.
//!
//! AsterixDB's physical record layout splits an object into a *closed part* —
//! the fields declared by the dataset's type, stored positionally without
//! their names — and an *open part* carrying any undeclared fields with
//! self-describing names (paper Section III: open types "carry additional
//! (self-describing) record content"). Declaring schema therefore buys
//! storage compactness; experiment E10 measures exactly that difference.
//!
//! Layout: `[n_declared:u16][presence bitmap][declared values...]`
//! `[n_open:u32][open name+value pairs...]`. Absent optional fields are
//! encoded as a cleared presence bit (zero bytes of payload).

use crate::binary::{encode_into, Decoder};
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
    out.extend_from_slice(&(n as u16).to_le_bytes());
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
    out.extend_from_slice(&(open.len() as u32).to_le_bytes());
    for (k, v) in open {
        out.extend_from_slice(&(k.len() as u16).to_le_bytes());
        out.extend_from_slice(k.as_bytes());
        encode_into(v, &mut out);
    }
    Ok(out)
}

/// Decodes a record produced by [`encode_with_schema`] with the same type.
pub fn decode_with_schema(buf: &[u8], ty: &ObjectType) -> Result<Value> {
    decode_fields_with_schema(buf, ty, &[])
}

/// [`decode_with_schema`] for a reader that wants only the top-level fields
/// named in `fields` (every field when `fields` is empty). A declared field
/// is found by its position — the others are stepped over, and reading stops
/// at the last one wanted; the open part is searched only for a name the type
/// does not declare.
pub fn decode_fields_with_schema(buf: &[u8], ty: &ObjectType, fields: &[String]) -> Result<Value> {
    let mut d = Decoder::new(buf);
    let n = u16::from_le_bytes(d.take(2)?.try_into().unwrap()) as usize;
    if n != ty.fields.len() {
        return Err(AdmError::Serde(format!(
            "schema mismatch: record has {n} declared fields, type {} has {}",
            ty.name,
            ty.fields.len()
        )));
    }
    let bitmap = d.take(n.div_ceil(8))?;
    if !n.is_multiple_of(8) && bitmap[n / 8] >> (n % 8) != 0 {
        return Err(AdmError::Serde(format!("presence bits past the {n} declared fields")));
    }
    let all = fields.is_empty();
    let mut obj = Object::with_capacity(if all { n } else { fields.len() });
    // names in `fields` not yet accounted for: found, or declared and absent
    let mut unresolved = fields.len();
    for (i, f) in ty.fields.iter().enumerate() {
        let present = bitmap[i / 8] & (1 << (i % 8)) != 0;
        let wanted = all || fields.contains(&f.name);
        if present && wanted {
            obj.set(f.name.clone(), d.value()?);
        } else if present {
            d.skip_value()?;
        }
        if wanted && !all {
            unresolved -= 1;
            if unresolved == 0 {
                return Ok(Value::Object(obj));
            }
        }
    }
    let n_open = d.len()?;
    for _ in 0..n_open {
        let klen = u16::from_le_bytes(d.take(2)?.try_into().unwrap()) as usize;
        let kbytes = d.take(klen)?;
        // a name the open part carries is one the type does not declare
        if !all && !fields.iter().any(|f| f.as_bytes() == kbytes) {
            d.skip_value()?;
            continue;
        }
        let key = std::str::from_utf8(kbytes)
            .map_err(|_| AdmError::Serde("invalid UTF-8 in open field name".into()))?
            .to_owned();
        obj.set(key, d.value()?);
        if !all {
            unresolved -= 1;
            if unresolved == 0 {
                return Ok(Value::Object(obj));
            }
        }
    }
    if !d.is_done() {
        return Err(AdmError::Serde("trailing bytes after schema-encoded record".into()));
    }
    Ok(Value::Object(obj))
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
        let v = cast_object(&parse_value(r#"{"id": 1}"#).unwrap(), ty, &reg).unwrap();
        let len = roundtrip(&v, ty);
        // header 2 + bitmap 1 + int (9) + open count 4 = 16
        assert_eq!(len, 16);
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
        let v = cast_object(&parse_value(r#"{"x": 1}"#).unwrap(), a, &reg).unwrap();
        let bytes = encode_with_schema(&v, a).unwrap();
        assert!(decode_with_schema(&bytes, b).is_err());
        assert!(decode_with_schema(&bytes[..3], a).is_err(), "truncated");
    }
}
