//! External datasets: querying file data in situ (paper Section III item 6
//! and Figure 3(b) — "one can make external data such as a log file
//! queryable as if it were natively stored").
//!
//! The `localfs` adapter supports two formats:
//!
//! * `delimited-text` — one record per line, fields split by a delimiter and
//!   mapped positionally onto the dataset's (typically CLOSED) type;
//! * `adm` / `json` — one ADM/JSON object per line.

use crate::error::{CoreError, Result};
use asterix_adm::types::{ObjectType, TypeExpr, TypeRegistry};
use asterix_adm::{Object, Value};
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Parsed adapter configuration.
#[derive(Debug, Clone)]
pub struct ExternalConfig {
    pub path: String,
    pub format: Format,
    pub delimiter: char,
}

/// Supported file formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    DelimitedText,
    Adm,
}

impl ExternalConfig {
    /// Interprets DDL adapter properties (Figure 3(b) style).
    pub fn from_properties(props: &[(String, String)]) -> Result<ExternalConfig> {
        let get = |k: &str| props.iter().find(|(p, _)| p == k).map(|(_, v)| v.as_str());
        let raw_path = get("path")
            .ok_or_else(|| CoreError::Catalog("external dataset requires a \"path\"".into()))?;
        // Figure 3(b) paths look like `localhost:///Users/...`; strip the host
        let path = match raw_path.split_once(":///") {
            Some((_host, p)) => format!("/{p}"),
            None => raw_path.to_string(),
        };
        let format = match get("format").unwrap_or("adm") {
            "delimited-text" => Format::DelimitedText,
            "adm" | "json" => Format::Adm,
            other => {
                return Err(CoreError::Unsupported(format!("external format {other:?}")))
            }
        };
        let delimiter = get("delimiter")
            .and_then(|d| d.chars().next())
            .unwrap_or('|');
        Ok(ExternalConfig { path, format, delimiter })
    }
}

/// Reads all records of an external dataset, casting them to `ty`.
pub fn read_external(
    cfg: &ExternalConfig,
    ty: Option<&ObjectType>,
    registry: &TypeRegistry,
) -> Result<Vec<Value>> {
    let file = std::fs::File::open(Path::new(&cfg.path)).map_err(|e| {
        CoreError::Catalog(format!("cannot open external file {:?}: {e}", cfg.path))
    })?;
    let reader = BufReader::new(file);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let value = match cfg.format {
            Format::Adm => asterix_adm::parse::parse_value(line.trim()).map_err(|e| {
                CoreError::Catalog(format!("{}:{}: {e}", cfg.path, lineno + 1))
            })?,
            Format::DelimitedText => {
                let ty = ty.ok_or_else(|| {
                    CoreError::Catalog(
                        "delimited-text external datasets require a declared type".into(),
                    )
                })?;
                parse_delimited(&line, cfg.delimiter, ty)
                    .map_err(|e| CoreError::Catalog(format!("{}:{}: {e}", cfg.path, lineno + 1)))?
            }
        };
        let value = match ty {
            Some(t) => asterix_adm::validate::cast_object(&value, t, registry)
                .map_err(CoreError::Adm)?
                .into_owned(),
            None => value,
        };
        out.push(value);
    }
    Ok(out)
}

/// Parses one delimited-text line positionally against the type's declared
/// fields (string/int/double/date/time/datetime supported).
fn parse_delimited(
    line: &str,
    delimiter: char,
    ty: &ObjectType,
) -> std::result::Result<Value, String> {
    let fields: Vec<&str> = line.split(delimiter).collect();
    if fields.len() != ty.fields.len() {
        return Err(format!(
            "expected {} fields, found {} in {line:?}",
            ty.fields.len(),
            fields.len()
        ));
    }
    let mut obj = Object::with_capacity(fields.len());
    for (raw, field) in fields.iter().zip(&ty.fields) {
        let raw = raw.trim();
        let name = match &field.ty {
            TypeExpr::Named(n) => n.as_str(),
            other => return Err(format!("unsupported delimited field type {other}")),
        };
        let v = match name {
            "string" => Value::String(raw.to_string()),
            "int" | "int8" | "int16" | "int32" | "int64" => raw
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| format!("bad int {raw:?} for field {}", field.name))?,
            "double" | "float" => raw
                .parse::<f64>()
                .map(Value::Double)
                .map_err(|_| format!("bad double {raw:?} for field {}", field.name))?,
            "boolean" => match raw {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                _ => return Err(format!("bad boolean {raw:?}")),
            },
            "date" => Value::Date(
                asterix_adm::temporal::parse_date(raw).map_err(|e| e.to_string())?,
            ),
            "time" => Value::Time(
                asterix_adm::temporal::parse_time(raw).map_err(|e| e.to_string())?,
            ),
            "datetime" => Value::DateTime(
                asterix_adm::temporal::parse_datetime(raw).map_err(|e| e.to_string())?,
            ),
            other => return Err(format!("unsupported delimited field type {other:?}")),
        };
        obj.set(field.name.clone(), v);
    }
    Ok(Value::Object(obj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::types::{Field, TypeRegistry};

    fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "asterix-ext-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&p, contents).unwrap();
        p
    }

    fn access_log_type() -> (TypeRegistry, ObjectType) {
        let reg = asterix_adm::types::gleambook_types();
        let ty = reg.get("AccessLogType").unwrap().clone();
        (reg, ty)
    }

    #[test]
    fn figure3b_delimited_access_log() {
        let path = tmp_file(
            "accesses.txt",
            "192.168.0.1|2017-01-10T10:00:00|margarita|GET|/home|200|1024\n\
             10.0.0.7|2017-01-11T11:30:00|dfrump|POST|/tweet|403|77\n",
        );
        let (reg, ty) = access_log_type();
        let cfg = ExternalConfig {
            path: path.to_string_lossy().into_owned(),
            format: Format::DelimitedText,
            delimiter: '|',
        };
        let recs = read_external(&cfg, Some(&ty), &reg).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].field("user"), &Value::from("margarita"));
        assert_eq!(recs[0].field("stat"), &Value::Int(200));
        assert_eq!(recs[1].field("verb"), &Value::from("POST"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn adm_format_lines() {
        let path = tmp_file("objs.adm", "{\"a\": 1}\n\n{\"a\": 2, \"b\": \"x\"}\n");
        let cfg = ExternalConfig {
            path: path.to_string_lossy().into_owned(),
            format: Format::Adm,
            delimiter: '|',
        };
        let reg = TypeRegistry::new();
        let recs = read_external(&cfg, None, &reg).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].field("b"), &Value::from("x"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn figure3b_path_host_stripping() {
        let cfg = ExternalConfig::from_properties(&[
            ("path".into(), "localhost:///Users/mjc/extdemo/accesses.txt".into()),
            ("format".into(), "delimited-text".into()),
            ("delimiter".into(), "|".into()),
        ])
        .unwrap();
        assert_eq!(cfg.path, "/Users/mjc/extdemo/accesses.txt");
        assert_eq!(cfg.format, Format::DelimitedText);
        assert_eq!(cfg.delimiter, '|');
    }

    #[test]
    fn errors_are_informative() {
        let (reg, ty) = access_log_type();
        let path = tmp_file("bad.txt", "only|three|fields\n");
        let cfg = ExternalConfig {
            path: path.to_string_lossy().into_owned(),
            format: Format::DelimitedText,
            delimiter: '|',
        };
        let err = read_external(&cfg, Some(&ty), &reg).unwrap_err();
        assert!(err.to_string().contains("expected 7 fields"), "{err}");
        let _ = std::fs::remove_file(path);
        // closed types reject extra fields via cast
        let mut reg2 = TypeRegistry::new();
        reg2.define(ObjectType::closed(
            "OneField",
            vec![Field::required("a", TypeExpr::named("int"))],
        ))
        .unwrap();
        let path2 = tmp_file("extra.adm", "{\"a\": 1, \"zzz\": 2}\n");
        let cfg2 = ExternalConfig {
            path: path2.to_string_lossy().into_owned(),
            format: Format::Adm,
            delimiter: '|',
        };
        let ty2 = reg2.get("OneField").unwrap().clone();
        assert!(read_external(&cfg2, Some(&ty2), &reg2).is_err());
        let _ = std::fs::remove_file(path2);
    }

    #[test]
    fn missing_file_is_catalog_error() {
        let cfg = ExternalConfig {
            path: "/nonexistent/nope.txt".into(),
            format: Format::Adm,
            delimiter: '|',
        };
        let reg = TypeRegistry::new();
        assert!(matches!(
            read_external(&cfg, None, &reg),
            Err(CoreError::Catalog(_))
        ));
    }
}
