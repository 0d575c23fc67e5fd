//! Schema validation and casting of values against declared ADM types.
//!
//! On ingest (INSERT/UPSERT/LOAD), AsterixDB validates each object against the
//! dataset's declared type and *casts* it into the declared shape: declared
//! numeric fields are coerced (e.g. an integer literal into a `double` field),
//! optional fields may be absent, open types keep undeclared extras, and
//! closed types reject them.

use crate::error::{AdmError, Result};
use crate::types::{Field, ObjectType, TypeExpr, TypeRegistry};
use crate::value::{Object, Value};
use std::borrow::Cow;

/// Validates and casts `value` against the object type `ty`, returning the
/// (possibly coerced) stored form. Declared fields are ordered first in the
/// output object, in declaration order, followed by any undeclared open
/// fields in their input order — mirroring AsterixDB's physical record layout
/// where the closed part precedes the open part.
///
/// A record that already is its stored form — see [`conforms`] — comes back
/// borrowed, as it is; any coercion, reordering or dropped `missing` builds
/// a new object.
pub fn cast_object<'a>(value: &'a Value, ty: &ObjectType, reg: &TypeRegistry) -> Result<Cow<'a, Value>> {
    if conforms(value, ty, reg) {
        return Ok(Cow::Borrowed(value));
    }
    let obj = value.as_object().ok_or_else(|| {
        AdmError::Type(format!(
            "expected an object of type {:?}, found {}",
            ty.name,
            value.type_name()
        ))
    })?;
    let mut out = Object::with_capacity(obj.len());
    for field in &ty.fields {
        match obj.get(&field.name) {
            None | Some(Value::Missing) => {
                if !field.optional {
                    return Err(AdmError::Type(format!(
                        "missing required field {:?} of type {:?}",
                        field.name, ty.name
                    )));
                }
            }
            Some(Value::Null) => {
                if !field.optional {
                    return Err(AdmError::Type(format!(
                        "null in non-optional field {:?} of type {:?}",
                        field.name, ty.name
                    )));
                }
                out.set(field.name.clone(), Value::Null);
            }
            Some(v) => {
                let cast = cast_expr(v, &field.ty, reg).map_err(|e| {
                    AdmError::Type(format!("field {:?} of {:?}: {e}", field.name, ty.name))
                })?;
                out.set(field.name.clone(), cast);
            }
        }
    }
    // Undeclared fields: kept (open) or rejected (closed).
    for (k, v) in obj.iter() {
        if ty.field(k).is_none() {
            if ty.is_open {
                if !v.is_missing() {
                    out.set(k.to_owned(), v.clone());
                }
            } else {
                return Err(AdmError::Type(format!(
                    "undeclared field {k:?} not allowed in CLOSED type {:?}",
                    ty.name
                )));
            }
        }
    }
    Ok(Cow::Owned(Value::Object(out)))
}

/// Whether `value` is what [`cast_object`] makes of it, checked without
/// building anything: an object whose declared fields come in declaration
/// order and before any other, each of its declared form (`null` only where
/// optional), whose absent declared fields are optional, that holds no
/// `missing` value, and whose undeclared fields an open type allows.
fn conforms(value: &Value, ty: &ObjectType, reg: &TypeRegistry) -> bool {
    let Some(obj) = value.as_object() else { return false };
    let mut declared = ty.fields.iter();
    let mut open_part = false;
    for (name, v) in obj.iter() {
        if v.is_missing() {
            return false;
        }
        if ty.field(name).is_none() {
            if !ty.is_open {
                return false;
            }
            open_part = true;
            continue;
        }
        // the declared fields passed over on the way to this one are absent
        match declared.find(|f| f.name == name || !f.optional) {
            Some(field) if !open_part && field.name == name && conforms_field(v, field, reg) => {}
            _ => return false,
        }
    }
    declared.all(|f| f.optional)
}

fn conforms_field(value: &Value, field: &Field, reg: &TypeRegistry) -> bool {
    match value {
        Value::Null => field.optional,
        v => conforms_expr(v, &field.ty, reg),
    }
}

/// Whether [`cast_expr`] returns `value` unchanged.
fn conforms_expr(value: &Value, ty: &TypeExpr, reg: &TypeRegistry) -> bool {
    match (ty, value) {
        (TypeExpr::Named(name), _) if name == "any" => true,
        (TypeExpr::Named(name), _) => match reg.get(name) {
            Some(obj_ty) => conforms(value, obj_ty, reg),
            None => matches!(
                (name.as_str(), value),
                ("boolean", Value::Bool(_))
                    | ("int" | "int8" | "int16" | "int32" | "int64", Value::Int(_))
                    | ("double" | "float", Value::Double(_))
                    | ("string", Value::String(_))
                    | ("date", Value::Date(_))
                    | ("time", Value::Time(_))
                    | ("datetime", Value::DateTime(_))
                    | ("duration", Value::Duration(_))
                    | ("point", Value::Point(_))
                    | ("rectangle", Value::Rectangle(_))
                    | ("uuid", Value::Uuid(_))
                    | ("binary", Value::Binary(_))
            ),
        },
        (TypeExpr::Array(inner), Value::Array(items)) | (TypeExpr::Multiset(inner), Value::Multiset(items)) => {
            items.iter().all(|i| conforms_expr(i, inner, reg))
        }
        _ => false,
    }
}

/// Validates and casts a value against an arbitrary type expression.
pub fn cast_expr(value: &Value, ty: &TypeExpr, reg: &TypeRegistry) -> Result<Value> {
    match ty {
        TypeExpr::Named(name) => cast_named(value, name, reg),
        TypeExpr::Array(inner) => match value {
            Value::Array(items) => Ok(Value::Array(
                items
                    .iter()
                    .map(|i| cast_expr(i, inner, reg))
                    .collect::<Result<Vec<_>>>()?,
            )),
            other => Err(AdmError::Type(format!(
                "expected array of {inner}, found {}",
                other.type_name()
            ))),
        },
        TypeExpr::Multiset(inner) => match value {
            // Arrays are accepted where multisets are declared (JSON input
            // has no multiset syntax of its own).
            Value::Multiset(items) | Value::Array(items) => Ok(Value::Multiset(
                items
                    .iter()
                    .map(|i| cast_expr(i, inner, reg))
                    .collect::<Result<Vec<_>>>()?,
            )),
            other => Err(AdmError::Type(format!(
                "expected multiset of {inner}, found {}",
                other.type_name()
            ))),
        },
    }
}

fn cast_named(value: &Value, name: &str, reg: &TypeRegistry) -> Result<Value> {
    if name == "any" {
        return Ok(value.clone());
    }
    if let Some(obj_ty) = reg.get(name) {
        return cast_object(value, obj_ty, reg).map(Cow::into_owned);
    }
    let mismatch = || AdmError::Type(format!("expected {name}, found {}", value.type_name()));
    match name {
        "boolean" => matches!(value, Value::Bool(_)).then(|| value.clone()).ok_or_else(mismatch),
        "int" | "int8" | "int16" | "int32" | "int64" => match value {
            Value::Int(_) => Ok(value.clone()),
            Value::Double(d) if d.fract() == 0.0 && d.abs() < 9.2e18 => Ok(Value::Int(*d as i64)),
            _ => Err(mismatch()),
        },
        "double" | "float" => match value {
            Value::Double(_) => Ok(value.clone()),
            Value::Int(i) => Ok(Value::Double(*i as f64)),
            _ => Err(mismatch()),
        },
        "string" => matches!(value, Value::String(_)).then(|| value.clone()).ok_or_else(mismatch),
        "date" => match value {
            Value::Date(_) => Ok(value.clone()),
            Value::String(s) => Ok(Value::Date(crate::temporal::parse_date(s)?)),
            _ => Err(mismatch()),
        },
        "time" => match value {
            Value::Time(_) => Ok(value.clone()),
            Value::String(s) => Ok(Value::Time(crate::temporal::parse_time(s)?)),
            _ => Err(mismatch()),
        },
        "datetime" => match value {
            Value::DateTime(_) => Ok(value.clone()),
            Value::String(s) => Ok(Value::DateTime(crate::temporal::parse_datetime(s)?)),
            _ => Err(mismatch()),
        },
        "duration" => match value {
            Value::Duration(_) => Ok(value.clone()),
            Value::String(s) => Ok(Value::Duration(crate::temporal::Duration::parse(s)?)),
            _ => Err(mismatch()),
        },
        "point" => matches!(value, Value::Point(_)).then(|| value.clone()).ok_or_else(mismatch),
        "rectangle" => {
            matches!(value, Value::Rectangle(_)).then(|| value.clone()).ok_or_else(mismatch)
        }
        "uuid" => matches!(value, Value::Uuid(_)).then(|| value.clone()).ok_or_else(mismatch),
        "binary" => matches!(value, Value::Binary(_)).then(|| value.clone()).ok_or_else(mismatch),
        other => Err(AdmError::Type(format!("unknown type {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_value;
    use crate::types::{gleambook_types, Field, ObjectType};

    fn user_value() -> Value {
        parse_value(
            r#"{
                "id": 1,
                "alias": "margarita",
                "name": "Margarita Stoddard",
                "userSince": datetime("2012-08-20T10:10:00"),
                "friendIds": {{ 2, 3, 6 }},
                "employment": [{"organizationName": "Codetechno",
                                "startDate": date("2006-08-06")}]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn cast_valid_gleambook_user() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let user = user_value();
        let cast = cast_object(&user, ty, &reg).unwrap();
        assert_eq!(cast.field("id"), &Value::Int(1));
        assert!(matches!(cast.field("friendIds"), Value::Multiset(_)));
    }

    #[test]
    fn a_record_already_in_its_stored_form_comes_back_borrowed() {
        let reg = gleambook_types();
        let message = parse_value(
            r#"{"messageId": 7, "authorId": 2, "senderLocation": point("40.1,80.2"),
                "message": " love verizon its signal is good", "lang": "en"}"#,
        )
        .unwrap();
        let user = user_value();
        let mut responding = message.clone();
        responding.as_object_mut().unwrap().set("inResponseTo", Value::Null);
        for (ty, v) in [("GleambookMessageType", &message), ("GleambookUserType", &user)] {
            let cast = cast_object(v, reg.get(ty).unwrap(), &reg).unwrap();
            assert!(matches!(cast, Cow::Borrowed(_)), "{ty}");
            assert_eq!(&*cast, v);
        }
        // an optional field's `null` after an open field moves it: built
        let cast = cast_object(&responding, reg.get("GleambookMessageType").unwrap(), &reg).unwrap();
        assert!(matches!(cast, Cow::Owned(_)));
        assert_eq!(cast.as_object().unwrap().keys().nth(2), Some("inResponseTo"));
    }

    #[test]
    fn a_coercion_a_reordering_or_a_missing_value_builds_the_record() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookMessageType").unwrap();
        let built = |text: &str| {
            let v = parse_value(text).unwrap();
            match cast_object(&v, ty, &reg).unwrap() {
                Cow::Owned(cast) => cast,
                Cow::Borrowed(_) => panic!("{text} came back as it was"),
            }
        };
        let want = parse_value(r#"{"messageId": 1, "authorId": 2, "message": "hi"}"#).unwrap();
        for text in [
            r#"{"authorId": 2, "messageId": 1, "message": "hi"}"#,
            r#"{"messageId": 1, "authorId": 2.0, "message": "hi"}"#,
            r#"{"messageId": 1, "authorId": 2, "inResponseTo": missing, "message": "hi"}"#,
        ] {
            assert_eq!(built(text), want, "{text}");
        }
        // an undeclared field ahead of a declared one
        let open_first = built(r#"{"x": 0, "messageId": 1, "authorId": 2, "message": "hi"}"#);
        assert_eq!(open_first.as_object().unwrap().keys().collect::<Vec<_>>(), ["messageId", "authorId", "message", "x"]);
        // a nested object that does not conform, under one that does
        let mut user = user_value();
        let employment = Value::Array(vec![parse_value(
            r#"{"startDate": date("2006-08-06"), "organizationName": "Codetechno"}"#,
        )
        .unwrap()]);
        user.as_object_mut().unwrap().set("employment", employment);
        let user_ty = reg.get("GleambookUserType").unwrap();
        assert!(matches!(cast_object(&user, user_ty, &reg).unwrap(), Cow::Owned(_)));
    }

    #[test]
    fn open_type_keeps_extra_fields() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let mut v = user_value();
        v.as_object_mut().unwrap().set("gender", Value::from("M"));
        let cast = cast_object(&v, ty, &reg).unwrap();
        assert_eq!(cast.field("gender"), &Value::from("M"), "open field survives");
        assert!(matches!(cast, Cow::Borrowed(_)), "already in declaration order, then the open field");
    }

    #[test]
    fn closed_type_rejects_extra_fields() {
        let reg = gleambook_types();
        let ty = reg.get("AccessLogType").unwrap();
        let v = parse_value(
            r#"{"ip":"1.2.3.4","time":"t","user":"u","verb":"GET","path":"/","stat":200,"size":10,"extra":1}"#,
        )
        .unwrap();
        let err = cast_object(&v, ty, &reg).unwrap_err();
        assert!(err.to_string().contains("undeclared field"), "{err}");
    }

    #[test]
    fn missing_required_field_rejected() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let mut v = user_value();
        v.as_object_mut().unwrap().remove("alias");
        assert!(cast_object(&v, ty, &reg).is_err());
    }

    #[test]
    fn optional_field_absent_or_null() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookMessageType").unwrap();
        let v = parse_value(r#"{"messageId":1,"authorId":2,"message":"hi"}"#).unwrap();
        let cast = cast_object(&v, ty, &reg).unwrap();
        assert_eq!(cast.field("inResponseTo"), &Value::Missing);
        let v2 = parse_value(r#"{"messageId":1,"authorId":2,"message":"hi","inResponseTo":null}"#)
            .unwrap();
        let cast2 = cast_object(&v2, ty, &reg).unwrap();
        assert_eq!(cast2.field("inResponseTo"), &Value::Null);
    }

    #[test]
    fn numeric_coercion() {
        let mut reg = TypeRegistry::new();
        reg.define(ObjectType::open(
            "T",
            vec![
                Field::required("d", TypeExpr::named("double")),
                Field::required("i", TypeExpr::named("int")),
            ],
        ))
        .unwrap();
        let v = parse_value(r#"{"d": 3, "i": 4.0}"#).unwrap();
        let cast = cast_object(&v, reg.get("T").unwrap(), &reg).unwrap();
        assert_eq!(cast.field("d"), &Value::Double(3.0));
        assert_eq!(cast.field("i"), &Value::Int(4));
        let bad = parse_value(r#"{"d": 3, "i": 4.5}"#).unwrap();
        assert!(cast_object(&bad, reg.get("T").unwrap(), &reg).is_err());
    }

    #[test]
    fn temporal_strings_coerce() {
        let mut reg = TypeRegistry::new();
        reg.define(ObjectType::open(
            "T",
            vec![Field::required("when", TypeExpr::named("datetime"))],
        ))
        .unwrap();
        let v = parse_value(r#"{"when": "2020-05-05T12:00:00"}"#).unwrap();
        let cast = cast_object(&v, reg.get("T").unwrap(), &reg).unwrap();
        assert!(matches!(cast.field("when"), Value::DateTime(_)));
    }

    #[test]
    fn array_where_multiset_declared() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let mut v = user_value();
        v.as_object_mut()
            .unwrap()
            .set("friendIds", Value::Array(vec![Value::Int(9)]));
        let cast = cast_object(&v, ty, &reg).unwrap();
        assert_eq!(cast.field("friendIds"), &Value::Multiset(vec![Value::Int(9)]));
    }

    #[test]
    fn declared_fields_ordered_first() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let mut v = user_value();
        // put an open field physically first in the input
        let mut o = Object::new();
        o.set("zzz_open", Value::Int(1));
        for (k, val) in v.as_object().unwrap().iter() {
            o.set(k.to_owned(), val.clone());
        }
        v = Value::Object(o);
        let cast = cast_object(&v, ty, &reg).unwrap();
        let first_key = cast.as_object().unwrap().keys().next().unwrap().to_owned();
        assert_eq!(first_key, "id", "declared (closed-part) fields come first");
    }
}
