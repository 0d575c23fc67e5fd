//! Workspace-level integration tests exercising the whole stack through the
//! umbrella crate's re-exports: data model → storage → dataflow → compiler →
//! languages → system.

use asterix_rs::adm::Value;
use asterix_rs::core::instance::{Instance, InstanceConfig, Language};

#[test]
fn whole_stack_smoke() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE SensorType AS {
             id: int, station: string, at: datetime, temp: double
         };
         CREATE DATASET Readings(SensorType) PRIMARY KEY id;
         CREATE INDEX byStation ON Readings(station);",
    )
    .unwrap();
    let mut txn = db.begin();
    for i in 0..500i64 {
        txn.write(
            "Readings",
            &asterix_rs::adm::parse::parse_value(&format!(
                r#"{{"id": {i}, "station": "st{}", "temp": {}.25,
                    "at": datetime("2021-07-0{}T0{}:00:00")}}"#,
                i % 7,
                (i % 40) - 10,
                i % 9 + 1,
                i % 9
            ))
            .unwrap(),
            true,
        )
        .unwrap();
    }
    txn.commit().unwrap();
    // aggregate through the parallel pipeline
    let rows = db
        .query(
            "SELECT r.station AS s, COUNT(*) AS n, MAX(r.temp) AS hi
             FROM Readings r GROUP BY r.station ORDER BY s",
        )
        .unwrap();
    assert_eq!(rows.len(), 7);
    let total: i64 = rows.iter().map(|r| r.field("n").as_i64().unwrap()).sum();
    assert_eq!(total, 500);
    // index path
    let plan = db
        .explain(
            "SELECT VALUE r FROM Readings r WHERE r.station = 'st3'",
            Language::Sqlpp,
        )
        .unwrap();
    assert!(plan.contains("index-scan Readings#byStation"), "{plan}");
    let st3 = db
        .query("SELECT VALUE r.id FROM Readings r WHERE r.station = 'st3'")
        .unwrap();
    assert_eq!(st3.len(), (0..500).filter(|i| i % 7 == 3).count());
    // both languages, same answers
    let aql = db
        .query_aql("for $r in dataset Readings where $r.station = \"st3\" return $r.id")
        .unwrap();
    let mut a = st3.clone();
    let mut b = aql;
    a.sort_by(asterix_rs::adm::compare::total_cmp);
    b.sort_by(asterix_rs::adm::compare::total_cmp);
    assert_eq!(a, b);
}

#[test]
fn storage_and_dataflow_compose_under_pressure() {
    // tiny memory budgets everywhere: LSM flushes, spilling sort/join
    let db = Instance::open(InstanceConfig {
        nodes: 2,
        partitions: 4,
        op_memory: 64 << 10, // 64 KiB working memory per operator
        storage: asterix_rs::core::dataset::StorageConfig {
            mem_budget: 32 << 10,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp(
        "CREATE TYPE T AS { id: int, k: int, pad: string };
         CREATE DATASET L(T) PRIMARY KEY id;
         CREATE DATASET R(T) PRIMARY KEY id;",
    )
    .unwrap();
    let mut txn = db.begin();
    for i in 0..3_000i64 {
        let rec = |id: i64| {
            asterix_rs::adm::parse::parse_value(&format!(
                r#"{{"id": {id}, "k": {}, "pad": "{}"}}"#,
                id % 300,
                "p".repeat(40)
            ))
            .unwrap()
        };
        txn.write("L", &rec(i), true).unwrap();
        if i % 3 == 0 {
            txn.write("R", &rec(i), true).unwrap();
        }
    }
    txn.commit().unwrap();
    // join + group + order, all under pressure
    let rows = db
        .query(
            "SELECT l.k AS k, COUNT(*) AS n
             FROM L l JOIN R r ON l.k = r.k
             GROUP BY l.k ORDER BY n DESC, k LIMIT 10",
        )
        .unwrap();
    assert_eq!(rows.len(), 10);
    // every k in 0..300 appears 10x in L and (ids divisible by 3) in R;
    // join/sort must have survived even if nothing spilled at this size:
    // correctness is the contract
    assert!(rows[0].field("n").as_i64().unwrap() >= rows[9].field("n").as_i64().unwrap());
}

#[test]
fn adm_types_flow_through_queries() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE E AS { id: int, span: duration?, at: datetime?, loc: point? };
         CREATE DATASET Events(E) PRIMARY KEY id;",
    )
    .unwrap();
    db.execute_sqlpp(
        r#"INSERT INTO Events ([
            {"id": 1, "span": duration("PT2H30M"), "at": datetime("2020-03-01T10:00:00"),
             "loc": point("33.6,-117.8")},
            {"id": 2, "at": datetime("2020-03-01T13:30:00")}
        ])"#,
    )
    .unwrap();
    // temporal arithmetic in a query
    let rows = db
        .query(
            r#"SELECT VALUE e.at + duration("P1D") FROM Events e WHERE e.id = 1"#,
        )
        .unwrap();
    assert_eq!(
        rows[0],
        Value::DateTime(asterix_rs::adm::temporal::parse_datetime("2020-03-02T10:00:00").unwrap())
    );
    // spatial function over stored point
    let rows = db
        .query(
            r#"SELECT VALUE spatial_distance(e.loc, create_point(33.6, -117.8))
               FROM Events e WHERE e.id = 1"#,
        )
        .unwrap();
    assert_eq!(rows[0], Value::Double(0.0));
    // missing vs null discrimination
    let rows = db
        .query("SELECT VALUE e.span IS MISSING FROM Events e ORDER BY e.id")
        .unwrap();
    assert_eq!(rows, vec![Value::Bool(false), Value::Bool(true)]);
}

#[test]
fn pubsub_and_interchange_cross_crate() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE M AS { id: int, sev: int };
         CREATE DATASET Alerts(M) PRIMARY KEY id;",
    )
    .unwrap();
    let broker = asterix_rs::core::pubsub::Broker::new(db.clone());
    broker
        .create_channel(
            "sev5",
            "SELECT VALUE a.id FROM Alerts a WHERE a.sev >= 5 ORDER BY a.id",
            Language::Sqlpp,
            true,
        )
        .unwrap();
    let rx = broker.subscribe("sev5").unwrap();
    asterix_rs::core::interchange::import_csv(&db, "Alerts", "id,sev\n1,7\n2,3\n3,9\n").unwrap();
    broker.tick("sev5").unwrap();
    let update = rx.try_recv().unwrap();
    assert_eq!(update.rows, vec![Value::Int(1), Value::Int(3)]);
    let csv = asterix_rs::core::interchange::export_csv(
        &db.query("SELECT a.id AS id, a.sev AS sev FROM Alerts a ORDER BY a.id").unwrap(),
    );
    assert!(csv.starts_with("id,sev\n1,7\n"), "{csv}");
}
