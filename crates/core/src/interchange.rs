//! CSV and JSON import/export — the §V-D lesson from watching real users:
//! "We also had support for CSV file import — for data they wanted export
//! support, in addition, to round-trip their data in and out of the system
//! in order to move it between analysis tools."

use crate::error::{CoreError, Result};
use crate::instance::Instance;
use asterix_adm::print::{to_adm_string, to_json_string};
use asterix_adm::{Object, Value};

/// Renders query results as CSV. The header is the union of field names of
/// the result objects, in first-appearance order. Non-object rows produce a
/// single `value` column.
pub fn export_csv(rows: &[Value]) -> String {
    let mut columns: Vec<String> = Vec::new();
    for r in rows {
        if let Some(o) = r.as_object() {
            for k in o.keys() {
                if !columns.iter().any(|c| c == k) {
                    columns.push(k.to_string());
                }
            }
        } else if !columns.iter().any(|c| c == "value") {
            columns.push("value".into());
        }
    }
    let mut out = String::new();
    let header: Vec<String> = columns.iter().map(|c| csv_quote(c.clone())).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in rows {
        let cells: Vec<String> = columns
            .iter()
            .map(|c| match r.as_object() {
                Some(o) => o.get(c).map(csv_cell).unwrap_or_default(),
                None if c == "value" => csv_cell(r),
                None => String::new(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn csv_cell(v: &Value) -> String {
    let raw = match v {
        Value::Missing | Value::Null => String::new(),
        Value::String(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => d.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Date(d) => asterix_adm::temporal::format_date(*d),
        Value::Time(t) => asterix_adm::temporal::format_time(*t),
        Value::DateTime(t) => asterix_adm::temporal::format_datetime(*t),
        other => to_json_string(other),
    };
    csv_quote(raw)
}

/// Quotes a header name or cell that holds a comma, a quote or a newline.
fn csv_quote(raw: String) -> String {
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw
    }
}

/// Renders query results as newline-delimited JSON.
pub fn export_json_lines(rows: &[Value]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&to_json_string(r));
        out.push('\n');
    }
    out
}

/// Renders query results as newline-delimited ADM (lossless round-trip).
pub fn export_adm_lines(rows: &[Value]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&to_adm_string(r));
        out.push('\n');
    }
    out
}

/// Parses CSV text into records using the header row for field names; all
/// cells are read as strings/numbers and cast by the dataset's type on
/// insert. Returns the number of records imported.
pub fn import_csv(instance: &Instance, dataset: &str, csv: &str) -> Result<usize> {
    let mut lines = csv.lines();
    let header = lines
        .next()
        .ok_or_else(|| CoreError::Constraint("empty CSV input".into()))?;
    let columns: Vec<String> = split_csv_line(header)
        .iter()
        .map(|c| c.trim().to_string())
        .collect();
    let mut records = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let cells = split_csv_line(line);
        if cells.len() != columns.len() {
            return Err(CoreError::Constraint(format!(
                "CSV line {}: expected {} cells, found {}",
                lineno + 2,
                columns.len(),
                cells.len()
            )));
        }
        let mut o = Object::with_capacity(columns.len());
        for (c, cell) in columns.iter().zip(cells) {
            o.set(c.clone(), infer_cell(&cell));
        }
        records.push(Value::Object(o));
    }
    let n = records.len();
    let mut txn = instance.begin();
    for r in &records {
        txn.write(dataset, r, true)?;
    }
    txn.commit()?;
    Ok(n)
}

/// Splits one CSV line honoring double-quote escaping.
fn split_csv_line(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => out.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    out.push(cur);
    out
}

/// Infers a scalar value from a CSV cell (int, double, bool, else string;
/// empty cells become NULL).
fn infer_cell(cell: &str) -> Value {
    let t = cell.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(d) = t.parse::<f64>() {
        return Value::Double(d);
    }
    match t {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::String(t.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::parse::parse_value;

    #[test]
    fn csv_export_shapes_header_from_objects() {
        let rows = vec![
            parse_value(r#"{"a": 1, "b": "x,y"}"#).unwrap(),
            parse_value(r#"{"a": 2, "c": true}"#).unwrap(),
        ];
        let csv = export_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b,c");
        assert_eq!(lines[1], "1,\"x,y\",");
        assert_eq!(lines[2], "2,,true");
    }

    #[test]
    fn csv_roundtrip_through_instance() {
        let instance = Instance::temp().unwrap();
        instance
            .execute_sqlpp(
                "CREATE TYPE RT AS { id: int, score: double, who: string };
                 CREATE DATASET R(RT) PRIMARY KEY id;",
            )
            .unwrap();
        let n = import_csv(
            &instance,
            "R",
            "id,score,who\n1,3.5,ann\n2,4.25,\"bo,b\"\n",
        )
        .unwrap();
        assert_eq!(n, 2);
        let rows = instance.query("SELECT VALUE r FROM R r ORDER BY r.id").unwrap();
        assert_eq!(rows[1].field("who"), &Value::from("bo,b"));
        // export and re-import into a second dataset
        let csv = export_csv(&rows);
        instance
            .execute_sqlpp("CREATE DATASET R2(RT) PRIMARY KEY id;")
            .unwrap();
        let n2 = import_csv(&instance, "R2", &csv).unwrap();
        assert_eq!(n2, 2);
        let back = instance.query("SELECT VALUE r FROM R2 r ORDER BY r.id").unwrap();
        assert_eq!(back, rows, "lossless CSV round-trip for flat records");
    }

    #[test]
    fn a_field_name_with_a_comma_round_trips() {
        let instance = Instance::temp().unwrap();
        instance
            .execute_sqlpp(
                "CREATE TYPE OT AS { id: int };
                 CREATE DATASET O(OT) PRIMARY KEY id;
                 CREATE DATASET O2(OT) PRIMARY KEY id;",
            )
            .unwrap();
        let record = parse_value(r#"{"id": 1, "a,b": "x"}"#).unwrap();
        let mut txn = instance.begin();
        txn.write("O", &record, true).unwrap();
        txn.commit().unwrap();
        let rows = instance.query("SELECT VALUE o FROM O o").unwrap();
        let csv = export_csv(&rows);
        assert_eq!(csv.lines().next(), Some(r#"id,"a,b""#));
        assert_eq!(import_csv(&instance, "O2", &csv).unwrap(), 1);
        let back = instance.query("SELECT VALUE o FROM O2 o").unwrap();
        assert_eq!(back, vec![record]);
    }

    #[test]
    fn json_and_adm_lines() {
        let rows = vec![parse_value(r#"{"when": datetime("2020-01-01T00:00:00")}"#).unwrap()];
        let json = export_json_lines(&rows);
        assert!(json.contains("\"2020-01-01T00:00:00\""), "{json}");
        let adm = export_adm_lines(&rows);
        assert!(adm.contains("datetime(\"2020-01-01T00:00:00\")"), "{adm}");
        // ADM lines re-parse losslessly
        let back = asterix_adm::parse::parse_many(&adm).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn csv_split_handles_quotes() {
        assert_eq!(split_csv_line("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_csv_line(r#""a,b",c"#), vec!["a,b", "c"]);
        assert_eq!(split_csv_line(r#""he said ""hi""",2"#), vec![r#"he said "hi""#, "2"]);
        assert_eq!(split_csv_line(""), vec![""]);
    }

    #[test]
    fn bad_csv_is_rejected() {
        let instance = Instance::temp().unwrap();
        instance
            .execute_sqlpp(
                "CREATE TYPE RT2 AS { id: int };
                 CREATE DATASET Q(RT2) PRIMARY KEY id;",
            )
            .unwrap();
        assert!(import_csv(&instance, "Q", "").is_err());
        assert!(import_csv(&instance, "Q", "id\n1,2\n").is_err(), "cell count mismatch");
    }
}
