//! E10 — open vs closed types (paper §III).
//!
//! "ADM thus enables the developers of an application to choose an
//! essentially schema-free world, a highly-specified schema world, or
//! something in between." The physical consequence: declared fields are
//! stored positionally in the record's closed part, while undeclared
//! (self-describing) fields carry their names inline. We store the same
//! logical data three ways and measure bytes per record — of the row a write
//! encodes and logs, and of the primary index's disk component, where the
//! declared fields are columns and the undeclared ones a row-encoded rest —
//! and scan-query time.

use crate::{ms, time_it, ExpReport};
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig};

const FULL_TYPE: &str = "
    CREATE TYPE FullT AS CLOSED {
        id: int, firstName: string, lastName: string, registeredAt: datetime,
        score: double, active: boolean, category: int
    };
    CREATE DATASET D(FullT) PRIMARY KEY id;";

const OPEN_DECLARED: &str = "
    CREATE TYPE DeclT AS {
        id: int, firstName: string, lastName: string, registeredAt: datetime,
        score: double, active: boolean, category: int
    };
    CREATE DATASET D(DeclT) PRIMARY KEY id;";

const OPEN_MINIMAL: &str = "
    CREATE TYPE MinT AS { id: int };
    CREATE DATASET D(MinT) PRIMARY KEY id;";

fn record(i: i64) -> asterix_adm::Value {
    asterix_adm::parse::parse_value(&format!(
        r#"{{"id": {i}, "firstName": "first{i}", "lastName": "last{i}",
            "registeredAt": datetime("2015-06-01T12:00:00"),
            "score": {}.5, "active": {}, "category": {}}}"#,
        i % 100,
        i % 2 == 0,
        i % 8
    ))
    .unwrap()
}

pub fn run(quick: bool) -> ExpReport {
    let n: i64 = if quick { 5_000 } else { 30_000 };
    let mut report = ExpReport::new(
        "E10",
        format!("open vs closed types ({n} identical records, 3 schema choices)"),
        &["schema", "bytes_per_record", "disk_bytes_per_record", "load_ms", "scan_query_ms", "rows"],
    );
    let variants = [
        ("CLOSED, all declared", FULL_TYPE),
        ("open, all declared", OPEN_DECLARED),
        ("open, only PK declared", OPEN_MINIMAL),
    ];
    let (mut per_record, mut on_disk_per_record): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (name, ddl) in variants {
        // a budget the load fits: the primary index flushes one component
        let storage = StorageConfig { mem_budget: 64 << 20, ..StorageConfig::default() };
        let db = Instance::open(InstanceConfig { partitions: 1, nodes: 1, storage, ..Default::default() })
            .unwrap();
        db.execute_sqlpp(ddl).unwrap();
        let (_, t_load) = time_it(|| {
            let mut txn = db.begin();
            for i in 0..n {
                txn.write("D", &record(i), true).unwrap();
            }
            txn.commit().unwrap();
        });
        // measure the physical record layout size directly
        let bytes = db.record_encoded_len("D", &record(7)).unwrap();
        per_record.push(bytes as f64);
        db.flush_all().unwrap();
        let (rows, t_q) = time_it(|| {
            db.query(
                "SELECT d.category AS c, COUNT(*) AS n, AVG(d.score) AS s
                 FROM D d WHERE d.active = true GROUP BY d.category",
            )
            .unwrap()
        });
        assert_eq!(rows.len(), 4, "even ids have even categories");
        // what the primary index's one component takes on disk
        let dir = db.crash();
        let on_disk = component_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        on_disk_per_record.push(on_disk as f64 / n as f64);
        report.row(&[
            name.into(),
            bytes.to_string(),
            format!("{:.1}", on_disk as f64 / n as f64),
            ms(t_load),
            ms(t_q),
            rows.len().to_string(),
        ]);
    }
    for bytes in [&per_record, &on_disk_per_record] {
        assert!(bytes[0] < bytes[2] && bytes[1] < bytes[2], "declared layouts take fewer bytes: {bytes:?}");
    }
    report.note(format!(
        "declared layouts store {:.0}% of the bytes of the self-describing layout \
         (field names dropped from the closed part) as rows and {:.0}% on disk (columns \
         against a row-encoded rest); queries answer identically on all three",
        per_record[0] / per_record[2] * 100.0,
        on_disk_per_record[0] / on_disk_per_record[2] * 100.0
    ));
    report.note(
        "shape: schema is a storage optimization, not a requirement — ADM's \
         'schema-free world, highly-specified schema world, or something in between'",
    );
    report
}

/// Bytes of the `.btree` component files under `dir`, node directories included.
fn component_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.path() {
            p if p.is_dir() => component_bytes(&p),
            p if p.extension().is_some_and(|x| x == "btree") => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_runs_quick() {
        assert_eq!(super::run(true).rows.len(), 3);
    }
}
