//! End-to-end integration tests on the embedded instance: the full paper
//! Figure 3 scenario, index access paths, transactions and crash recovery,
//! and AQL/SQL++ equivalence.

mod common;

use asterix_adm::Value;
use asterix_core::instance::{Instance, InstanceConfig, Language};

fn gleambook_ddl() -> &'static str {
    r#"
    CREATE TYPE EmploymentType AS {
        organizationName: string,
        startDate: date,
        endDate: date?
    };
    CREATE TYPE GleambookUserType AS {
        id: int,
        alias: string,
        name: string,
        userSince: datetime,
        friendIds: {{ int }},
        employment: [EmploymentType]
    };
    CREATE TYPE GleambookMessageType AS {
        messageId: int,
        authorId: int,
        inResponseTo: int?,
        senderLocation: point?,
        message: string
    };
    CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
    CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;
    CREATE INDEX gbUserSinceIdx ON GleambookUsers(userSince);
    CREATE INDEX gbAuthorIdx ON GleambookMessages(authorId) TYPE BTREE;
    CREATE INDEX gbSenderLocIndex ON GleambookMessages(senderLocation) TYPE RTREE;
    CREATE INDEX gbMessageIdx ON GleambookMessages(message) TYPE KEYWORD;
    "#
}

fn load_users(db: &Instance, n: i64) {
    let mut gen = asterix_core::datagen::DataGen::new(42);
    let mut txn = db.begin();
    for i in 1..=n {
        txn.write("GleambookUsers", &gen.user(i), true).unwrap();
    }
    txn.commit().unwrap();
}

fn load_messages(db: &Instance, n: i64, users: i64) {
    let mut gen = asterix_core::datagen::DataGen::new(43);
    let mut txn = db.begin();
    for i in 1..=n {
        txn.write("GleambookMessages", &gen.message(i, users), true).unwrap();
    }
    txn.commit().unwrap();
}

#[test]
fn figure3_full_scenario() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    load_users(&db, 100);
    load_messages(&db, 300, 100);
    // Figure 3(b): external access log referencing real user aliases
    let aliases: Vec<String> = db
        .query("SELECT VALUE u.alias FROM GleambookUsers u")
        .unwrap()
        .into_iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    let mut gen = asterix_core::datagen::DataGen::new(44);
    let epoch = asterix_core::datagen::epoch_2012();
    let lines: Vec<String> = (0..500)
        .map(|i| {
            gen.access_log_line(&aliases[i as usize % aliases.len()], epoch + i * 60_000)
        })
        .collect();
    let log_path = db.data_dir().join("accesses.txt");
    std::fs::write(&log_path, lines.join("\n")).unwrap();
    db.execute_sqlpp(&format!(
        r#"
        CREATE TYPE AccessLogType AS CLOSED {{
            ip: string, time: string, user: string, verb: string,
            'path': string, stat: int32, size: int32
        }};
        CREATE EXTERNAL DATASET AccessLog(AccessLogType) USING localfs
          (("path"="{}"), ("format"="delimited-text"), ("delimiter"="|"));
        "#,
        log_path.display()
    ))
    .unwrap();
    // external data is queryable in situ
    let n = db
        .query("SELECT COUNT(*) AS n FROM AccessLog a")
        .unwrap();
    assert_eq!(n[0].field("n"), &Value::Int(500));
    // Figure 3(d): the UPSERT
    db.execute_sqlpp(
        r#"
        UPSERT INTO GleambookUsers (
            {"id":667, "alias":"dfrump", "name":"DonaldFrump",
             "nickname":"Frumpkin",
             "userSince":datetime("2017-01-01T00:00:00"),
             "friendIds":{{}},
             "employment":[{"organizationName":"USA",
                            "startDate":date("2017-01-20")}],
             "gender":"M"}
        );
        "#,
    )
    .unwrap();
    assert_eq!(db.count("GleambookUsers").unwrap(), 101);
    let frump = db
        .query("SELECT VALUE u FROM GleambookUsers u WHERE u.id = 667")
        .unwrap();
    assert_eq!(frump[0].field("gender"), &Value::from("M"), "open field kept");
    // Figure 3(c): the analytical query (fixed window over the log's range)
    let rows = db
        .query(
            r#"
            WITH startTime AS datetime("2012-01-01T00:00:00"),
                 endTime AS datetime("2012-01-01T02:00:00")
            SELECT nf AS numFriends, COUNT(user) AS activeUsers
            FROM GleambookUsers user
            LET nf = COLL_COUNT(user.friendIds)
            WHERE SOME logrec IN AccessLog SATISFIES
                      user.alias = logrec.user
                  AND datetime(logrec.time) >= startTime
                  AND datetime(logrec.time) <= endTime
            GROUP BY nf
            "#,
        )
        .unwrap();
    assert!(!rows.is_empty(), "some users were active in the window");
    let total: i64 = rows
        .iter()
        .map(|r| r.field("activeUsers").as_i64().unwrap())
        .sum();
    assert!(total > 0 && total <= 101);
    // every row has both fields
    for r in &rows {
        assert!(r.field("numFriends").as_i64().is_some());
    }
}

#[test]
fn secondary_index_access_paths_are_used_and_correct() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    load_messages(&db, 500, 50);
    // btree path
    let plan = db
        .explain(
            "SELECT VALUE m FROM GleambookMessages m WHERE m.authorId = 7",
            Language::Sqlpp,
        )
        .unwrap();
    assert!(plan.contains("index-scan GleambookMessages#gbAuthorIdx"), "{plan}");
    let via_index = db
        .query("SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId = 7")
        .unwrap();
    // compare against a full-scan formulation the optimizer can't index
    let via_scan = db
        .query(
            "SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId + 0 = 7",
        )
        .unwrap();
    let canon = |mut v: Vec<Value>| {
        v.sort_by(asterix_adm::compare::total_cmp);
        v
    };
    assert_eq!(canon(via_index), canon(via_scan));
    // rtree path
    let plan = db
        .explain(
            r#"SELECT VALUE m FROM GleambookMessages m
               WHERE spatial_intersect(m.senderLocation,
                                       create_rectangle(create_point(-120.0, 30.0),
                                                        create_point(-110.0, 40.0)))"#,
            Language::Sqlpp,
        )
        .unwrap();
    assert!(plan.contains("gbSenderLocIndex"), "{plan}");
    // keyword path
    let plan = db
        .explain(
            "SELECT VALUE m FROM GleambookMessages m WHERE contains(m.message, 'verizon')",
            Language::Sqlpp,
        )
        .unwrap();
    assert!(plan.contains("gbMessageIdx"), "{plan}");
    let hits = db
        .query("SELECT VALUE m.message FROM GleambookMessages m WHERE contains(m.message, 'verizon')")
        .unwrap();
    assert!(hits.iter().all(|m| m.as_str().unwrap().contains("verizon")));
}

#[test]
fn primary_key_access_path_is_chosen_by_both_front_ends() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    let golden = "distribute-result [$0]
  assign $0 := $1.message
    select eq($1.messageId, 42)
      index-scan GleambookMessages#primary [eq 42] {message, messageId} -> $1
";
    let sqlpp = db
        .explain(
            "SELECT VALUE m.message FROM GleambookMessages m WHERE m.messageId = 42",
            Language::Sqlpp,
        )
        .unwrap();
    let aql = db
        .explain(
            "for $m in dataset GleambookMessages where $m.messageId = 42 return $m.message",
            Language::Aql,
        )
        .unwrap();
    assert_eq!(sqlpp, golden);
    assert_eq!(aql, golden);
    // a key range, ahead of nothing here: no secondary index has a conjunct
    let range = db
        .explain(
            "SELECT VALUE m.message FROM GleambookMessages m
             WHERE m.messageId >= 3 AND m.messageId < 10 AND m.message != 'x'",
            Language::Sqlpp,
        )
        .unwrap();
    assert!(range.contains("index-scan GleambookMessages#primary [ge 3, lt 10]"), "{range}");
}

/// `tuples_out` of every `source` operator-partition under `op`, with the
/// operator's label.
fn source_outputs(op: &asterix_obs::OperatorProfile, out: &mut Vec<(String, Vec<u64>)>) {
    if op.name == "source" {
        out.push((op.label.clone(), op.partitions.iter().map(|p| p.tuples_out).collect()));
    }
    for input in &op.inputs {
        source_outputs(input, out);
    }
}

/// Runs `sql` through a session; returns its rows and its sources' outputs.
fn profiled(db: &Instance, sql: &str) -> (Vec<Value>, Vec<(String, Vec<u64>)>) {
    let handle = db.session().submit(sql).unwrap();
    let rows = handle.wait().unwrap();
    let mut sources = Vec::new();
    source_outputs(&handle.profile().unwrap().root, &mut sources);
    (rows, sources)
}

#[test]
fn a_scan_says_which_fields_it_decodes() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    load_messages(&db, 50, 5);
    // read through one field: the plan and the operator say so
    let sql = "SELECT m.authorId AS a, COUNT(*) AS c FROM GleambookMessages m GROUP BY m.authorId";
    let plan = db.explain(sql, Language::Sqlpp).unwrap();
    assert_eq!(plan.lines().last().unwrap().trim(), "scan GleambookMessages {authorId} -> $3", "{plan}");
    let (rows, sources) = profiled(&db, sql);
    assert_eq!(rows.len(), 5);
    assert_eq!(sources[0].0, "scan:GleambookMessages {authorId}");
    // read whole: nothing to say
    let (_, sources) = profiled(&db, "SELECT VALUE m FROM GleambookMessages m");
    assert_eq!(sources[0].0, "scan:GleambookMessages");
}

#[test]
fn primary_key_point_get_reads_one_record_on_the_owning_partition() {
    let db = Instance::open(InstanceConfig { nodes: 3, partitions: 3, ..Default::default() })
        .unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    load_messages(&db, 600, 50);
    db.flush_all().unwrap();
    let point_reads = |db: &Instance| -> Vec<u64> {
        db.lsm_stats("GleambookMessages", None).unwrap().iter().map(|s| s.reads).collect()
    };
    let visited = |db: &Instance| -> u64 {
        db.lsm_stats("GleambookMessages", None).unwrap().iter().map(|s| s.entries_visited).sum()
    };
    // 77.0 must land on the bytes (and so the partition) 77 was stored under
    for (key, want) in [("77", 1), ("77.0", 1), ("600", 1), ("601", 0), ("77.5", 0)] {
        let (reads_before, visited_before) = (point_reads(&db), visited(&db));
        let (rows, sources) = profiled(
            &db,
            &format!("SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId = {key}"),
        );
        assert_eq!(rows.len(), want, "messageId = {key}");
        assert_eq!(sources.len(), 1, "{sources:?}");
        let (label, outs) = &sources[0];
        assert_eq!(label, "iscan:GleambookMessages#primary {messageId}");
        assert_eq!(outs.iter().sum::<u64>(), want as u64, "examined for {key}: {outs:?}");
        // exactly one partition was asked, for exactly one key: the one
        // that produced the record when there is one
        let asked: Vec<u64> =
            point_reads(&db).iter().zip(&reads_before).map(|(a, b)| a - b).collect();
        assert_eq!(asked.iter().sum::<u64>(), 1, "messageId = {key}: {asked:?}");
        if want == 1 {
            assert_eq!(&asked, outs, "the owner is the one that read");
        }
        assert_eq!(visited(&db), visited_before, "a point get scans nothing");
    }
}

#[test]
fn secondary_probe_visits_its_matches_not_the_index_tail() {
    let db = Instance::open(InstanceConfig { nodes: 2, partitions: 2, ..Default::default() })
        .unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    // 2 000 messages by 100 authors: one disk component per partition, then
    // as many again in the memory components
    load_messages(&db, 1_000, 100);
    db.flush_all().unwrap();
    let mut gen = asterix_core::datagen::DataGen::new(44);
    let mut txn = db.begin();
    for i in 1_001..=2_000 {
        txn.write("GleambookMessages", &gen.message(i, 100), true).unwrap();
    }
    txn.commit().unwrap();
    let index_visited = |db: &Instance| -> Vec<u64> {
        db.lsm_stats("GleambookMessages", Some("gbAuthorIdx"))
            .unwrap()
            .iter()
            .map(|s| s.entries_visited)
            .collect()
    };
    // a low author id: nearly the whole index sorts after it
    for predicate in ["m.authorId = 3", "m.authorId >= 3 AND m.authorId < 5"] {
        let before = index_visited(&db);
        let (rows, sources) = profiled(
            &db,
            &format!("SELECT VALUE m.messageId FROM GleambookMessages m WHERE {predicate}"),
        );
        let (label, outs) = &sources[0];
        assert_eq!(label, "iscan:GleambookMessages#gbAuthorIdx {authorId, messageId}");
        assert_eq!(outs.iter().sum::<u64>(), rows.len() as u64, "no false candidates");
        assert!(rows.len() >= 10, "{predicate}: {} rows", rows.len());
        for ((after, before), matches) in index_visited(&db).iter().zip(&before).zip(outs) {
            // per partition: the matches, plus one entry of lookahead in
            // each of its two components
            let visited = after - before;
            assert!(visited >= *matches && visited <= matches + 2, "{predicate}: {visited} visited for {matches} matches");
        }
    }
}

#[test]
fn every_index_kind_merges_in_the_background_and_answers_like_a_scan() {
    use asterix_core::dataset::StorageConfig;
    let db = Instance::open(InstanceConfig {
        storage: StorageConfig { mem_budget: 2 << 10, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    // ingest, then move (new author, location and text) or delete the first
    // half, so every index retracts entries that already sit in components;
    // in small transactions, because a memory component is flushed only once
    // the transactions that wrote into it are over
    let mut load = asterix_core::datagen::DataGen::new(43);
    let mut gen = asterix_core::datagen::DataGen::new(99);
    for batch in 0..45 {
        let mut txn = db.begin();
        for i in batch * 40 + 1..=(batch + 1) * 40 {
            if i <= 1_200 {
                txn.write("GleambookMessages", &load.message(i, 40), true).unwrap();
            } else if i % 5 == 0 {
                let pk = asterix_adm::binary::encode_key(&[Value::Int(i - 1_200)]);
                txn.delete("GleambookMessages", &pk).unwrap();
            } else {
                txn.write("GleambookMessages", &gen.message(i - 1_200, 40), true).unwrap();
            }
        }
        txn.commit().unwrap();
    }

    // asked while merges may still be running: reads are snapshot-consistent
    let all = db.query("SELECT VALUE m FROM GleambookMessages m").unwrap();
    assert_eq!(all.len(), 1_200 - 120);
    type Keep<'a> = &'a dyn Fn(&Value) -> bool;
    let ids = |rows: &[Value], keep: Keep| -> Vec<i64> {
        let mut ids: Vec<i64> = rows
            .iter()
            .filter(|m| keep(m))
            .map(|m| m.field("messageId").as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    };
    let in_box = |m: &Value| match m.field("senderLocation") {
        Value::Point(p) => (-120.0..=-100.0).contains(&p.x) && (30.0..=45.0).contains(&p.y),
        _ => false,
    };
    let cases: [(&str, &str, Keep); 3] = [
        ("gbAuthorIdx", "m.authorId = 7", &|m| m.field("authorId").as_i64() == Some(7)),
        (
            "gbSenderLocIndex",
            "spatial_intersect(m.senderLocation, create_rectangle(create_point(-120.0, 30.0), create_point(-100.0, 45.0)))",
            &in_box,
        ),
        ("gbMessageIdx", "contains(m.message, 'verizon')", &|m| {
            m.field("message").as_str().unwrap().contains("verizon")
        }),
    ];
    for (index, predicate, keep) in cases {
        let sql = format!("SELECT VALUE m FROM GleambookMessages m WHERE {predicate}");
        let plan = db.explain(&sql, Language::Sqlpp).unwrap();
        assert!(plan.contains(index), "{plan}");
        let want = ids(&all, keep);
        assert!(!want.is_empty(), "{predicate} matches nothing: vacuous");
        assert_eq!(ids(&db.query(&sql).unwrap(), &|_| true), want, "{predicate}");
    }

    // the merges drain, and ran for every kind
    common::settle(&db);
    for index in [None, Some("gbAuthorIdx"), Some("gbSenderLocIndex"), Some("gbMessageIdx")] {
        let merges: u64 =
            db.lsm_stats("GleambookMessages", index).unwrap().iter().map(|s| s.merges).sum();
        assert!(merges > 0, "{index:?} never merged");
    }
}

/// No-steal under concurrency: a sealed memory component waits for the
/// transaction that wrote into it, and another writer that would meanwhile
/// overgrow the active component waits for that transaction rather than
/// for its own timeout — whichever of them gets there first, nothing
/// deadlocks, nothing is lost, and the wait is counted.
#[test]
fn writer_and_sealed_component_both_wait_for_the_open_transaction() {
    use asterix_core::dataset::StorageConfig;
    let db = Instance::open(InstanceConfig {
        nodes: 1,
        partitions: 1,
        storage: StorageConfig { mem_budget: 1 << 10, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int, v: string }; CREATE DATASET D(T) PRIMARY KEY id;")
        .unwrap();
    let rec = |id: i64| {
        asterix_adm::parse::parse_value(&format!(r#"{{"id": {id}, "v": "{}"}}"#, "x".repeat(100))).unwrap()
    };
    let seals = || db.lsm_stats("D", None).unwrap()[0].seals;
    let mut holder = db.begin();
    let mut held = 0;
    while seals() == 0 {
        holder.write("D", &rec(held), true).unwrap();
        held += 1;
    }
    let (under_way, started) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut txn = db.begin();
            for i in 0..40 {
                txn.write("D", &rec(1_000 + i), true).unwrap();
                if i == 2 {
                    under_way.send(()).unwrap();
                }
            }
            txn.commit()
        });
        asterix_storage::lock_order::recv(&started).unwrap();
        assert_eq!(db.lsm_stats("D", None).unwrap()[0].flushes, 0, "flushed under an open writer");
        holder.commit().unwrap();
        writer.join().unwrap().unwrap();
    });
    assert_eq!(db.count("D").unwrap() as i64, held + 40);
    let stats = &db.lsm_stats("D", None).unwrap()[0];
    assert!(stats.flushes >= 2 && stats.flushes == stats.seals, "{stats:?}");
    let waited = db.metrics_snapshot().counter("node0.storage.lsm.flush_wait_ns").unwrap();
    assert!(waited > 0);
}

#[test]
fn delete_statement_and_insert_constraints() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE T AS { id: int, grp: int };
         CREATE DATASET D(T) PRIMARY KEY id;",
    )
    .unwrap();
    db.execute_sqlpp(
        r#"INSERT INTO D ([{"id":1,"grp":1},{"id":2,"grp":1},{"id":3,"grp":2}])"#,
    )
    .unwrap();
    // INSERT with duplicate key fails, UPSERT succeeds
    assert!(db.execute_sqlpp(r#"INSERT INTO D ({"id":1,"grp":9})"#).is_err());
    db.execute_sqlpp(r#"UPSERT INTO D ({"id":1,"grp":9})"#).unwrap();
    let v = db.query("SELECT VALUE d.grp FROM D d WHERE d.id = 1").unwrap();
    assert_eq!(v, vec![Value::Int(9)]);
    // DELETE with predicate
    db.execute_sqlpp("DELETE FROM D d WHERE d.grp = 1").unwrap();
    assert_eq!(db.count("D").unwrap(), 2);
}

#[test]
fn explicit_txn_abort_rolls_back() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE T AS { id: int, v: int };
         CREATE DATASET D(T) PRIMARY KEY id;",
    )
    .unwrap();
    db.execute_sqlpp(r#"UPSERT INTO D ({"id":1,"v":10})"#).unwrap();
    let mut txn = db.begin();
    txn.write("D", &asterix_adm::parse::parse_value(r#"{"id":1,"v":99}"#).unwrap(), true)
        .unwrap();
    txn.write("D", &asterix_adm::parse::parse_value(r#"{"id":2,"v":20}"#).unwrap(), true)
        .unwrap();
    txn.abort().unwrap();
    let rows = db.query("SELECT VALUE d.v FROM D d ORDER BY d.id").unwrap();
    assert_eq!(rows, vec![Value::Int(10)], "abort restored before-images");
}

#[test]
fn crash_recovery_replays_committed_only() {
    let dir = std::env::temp_dir().join(format!(
        "asterix-recovery-test-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let config = InstanceConfig { data_dir: Some(dir.clone()), ..Default::default() };
    {
        let db = Instance::open(config.clone()).unwrap();
        db.execute_sqlpp(
            "CREATE TYPE T AS { id: int, v: int };
             CREATE DATASET D(T) PRIMARY KEY id;",
        )
        .unwrap();
        // committed work
        let mut txn = db.begin();
        for i in 0..50 {
            txn.write(
                "D",
                &asterix_adm::parse::parse_value(&format!(r#"{{"id":{i},"v":{i}}}"#)).unwrap(),
                true,
            )
            .unwrap();
        }
        txn.commit().unwrap();
        // committed delete
        let mut txn = db.begin();
        txn.delete("D", &asterix_adm::binary::encode_key(&[Value::Int(7)])).unwrap();
        txn.commit().unwrap();
        // uncommitted work lost in the crash (logged, never committed)
        let mut txn = db.begin();
        txn.write(
            "D",
            &asterix_adm::parse::parse_value(r#"{"id":999,"v":0}"#).unwrap(),
            true,
        )
        .unwrap();
        std::mem::forget(txn); // crash before commit: no rollback either
        let _ = db.crash();
    }
    {
        let db = Instance::open(config).unwrap();
        assert_eq!(db.count("D").unwrap(), 49, "50 committed inserts, 1 committed delete");
        let rows = db.query("SELECT VALUE d.id FROM D d WHERE d.id = 999").unwrap();
        assert!(rows.is_empty(), "uncommitted insert did not survive");
        let rows = db.query("SELECT VALUE d.id FROM D d WHERE d.id = 7").unwrap();
        assert!(rows.is_empty(), "committed delete survived");
        // the recovered instance is fully usable
        db.execute_sqlpp(r#"UPSERT INTO D ({"id":1000,"v":1})"#).unwrap();
        assert_eq!(db.count("D").unwrap(), 50);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Lone-committer equivalence: N sequential commits on one node are N
/// append → write → fsync sequences — every commit leads its own fsync
/// round, none piggybacks. The fault injector sees 2N I/O ops (one WAL
/// write + one fsync per commit): 50 for N = 25, the count the retired
/// per-commit-fsync mode (group commit switched off) produced at the parent
/// commit, so seeded crash schedules land on the same operations.
#[test]
fn lone_committer_issues_one_fsync_per_commit() {
    const N: u64 = 25;
    let injector = asterix_storage::faults::FaultInjector::new(
        asterix_storage::faults::FaultConfig { seed: 1, ..Default::default() },
    );
    let db = Instance::open(InstanceConfig {
        nodes: 1,
        partitions: 1,
        faults: Some(injector.clone()),
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int, v: int }; CREATE DATASET D(T) PRIMARY KEY id;")
        .unwrap();
    let ops_before = injector.ops();
    for i in 0..N {
        let rec = asterix_adm::parse::parse_value(&format!(r#"{{"id": {i}, "v": {i}}}"#)).unwrap();
        let mut txn = db.begin();
        txn.write("D", &rec, true).unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(injector.ops() - ops_before, 50, "one WAL write + one fsync per commit");
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("node0.storage.wal.group_commits"), Some(N), "N fsync rounds");
    assert_eq!(snap.counter("node0.storage.wal.group_commit_waiters"), Some(0));
}

#[test]
fn aql_and_sqlpp_agree_end_to_end() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    load_messages(&db, 200, 20);
    let sql = db
        .query(
            "SELECT VALUE m.messageId FROM GleambookMessages m
             WHERE m.authorId = 5 ORDER BY m.messageId",
        )
        .unwrap();
    let aql = db
        .query_aql(
            "for $m in dataset GleambookMessages
             where $m.authorId = 5
             order by $m.messageId
             return $m.messageId",
        )
        .unwrap();
    assert_eq!(sql, aql);
    // identical optimized plans (E9's claim)
    let p1 = db
        .explain(
            "SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId = 5",
            Language::Sqlpp,
        )
        .unwrap();
    let p2 = db
        .explain(
            "for $m in dataset GleambookMessages where $m.authorId = 5 return $m.messageId",
            Language::Aql,
        )
        .unwrap();
    assert_eq!(p1, p2);
}

#[test]
fn multi_partition_parallel_query() {
    let db = Instance::open(InstanceConfig {
        nodes: 4,
        partitions: 4,
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp(
        "CREATE TYPE T AS { id: int, grp: int, val: int };
         CREATE DATASET D(T) PRIMARY KEY id;",
    )
    .unwrap();
    let mut txn = db.begin();
    for i in 0..2_000 {
        txn.write(
            "D",
            &asterix_adm::parse::parse_value(&format!(
                r#"{{"id":{i},"grp":{},"val":{}}}"#,
                i % 10,
                i % 100
            ))
            .unwrap(),
            true,
        )
        .unwrap();
    }
    txn.commit().unwrap();
    let rows = db
        .query(
            "SELECT d.grp AS g, COUNT(*) AS n, SUM(d.val) AS s FROM D d
             GROUP BY d.grp ORDER BY g",
        )
        .unwrap();
    assert_eq!(rows.len(), 10);
    for r in &rows {
        assert_eq!(r.field("n"), &Value::Int(200));
    }
    // join across partitions
    let joined = db
        .query(
            "SELECT COUNT(*) AS n FROM D a JOIN D b ON a.id = b.id WHERE a.grp = 3",
        )
        .unwrap();
    assert_eq!(joined[0].field("n"), &Value::Int(200));
}

#[test]
fn temporal_binning_functions_for_user_studies() {
    // the §V-D multitasking-study requirement end-to-end
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE A AS { id: int, start: datetime, stop: datetime };
         CREATE DATASET Activities(A) PRIMARY KEY id;",
    )
    .unwrap();
    db.execute_sqlpp(
        r#"UPSERT INTO Activities ([
            {"id":1,"start":datetime("2020-01-01T00:30:00"),"stop":datetime("2020-01-01T02:15:00")},
            {"id":2,"start":datetime("2020-01-01T01:00:00"),"stop":datetime("2020-01-01T01:20:00")}
        ])"#,
    )
    .unwrap();
    let rows = db
        .query(
            r#"SELECT VALUE COLL_COUNT(overlap_bins(a.start, a.stop,
                     datetime("2020-01-01T00:00:00"), duration("PT1H")))
               FROM Activities a ORDER BY a.id"#,
        )
        .unwrap();
    assert_eq!(rows, vec![Value::Int(3), Value::Int(1)], "activity 1 spans 3 hourly bins");
}

#[test]
fn union_all_end_to_end() {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE T AS { id: int, v: int };
         CREATE DATASET A(T) PRIMARY KEY id;
         CREATE DATASET B(T) PRIMARY KEY id;",
    )
    .unwrap();
    db.execute_sqlpp(r#"INSERT INTO A ([{"id":1,"v":10},{"id":2,"v":20}])"#).unwrap();
    db.execute_sqlpp(r#"INSERT INTO B ([{"id":1,"v":30}])"#).unwrap();
    let mut rows = db
        .query(
            "SELECT VALUE a.v FROM A a
             UNION ALL SELECT VALUE b.v FROM B b
             UNION ALL SELECT VALUE 99",
        )
        .unwrap();
    rows.sort_by(asterix_rs_sortkey);
    assert_eq!(
        rows,
        vec![Value::Int(10), Value::Int(20), Value::Int(30), Value::Int(99)]
    );
}

fn asterix_rs_sortkey(a: &Value, b: &Value) -> std::cmp::Ordering {
    asterix_adm::compare::total_cmp(a, b)
}

#[test]
fn reopen_with_different_partition_count_is_rejected() {
    let dir = std::env::temp_dir().join(format!(
        "asterix-layout-test-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let open = |partitions, nodes| {
        Instance::open(InstanceConfig {
            data_dir: Some(dir.clone()),
            partitions,
            nodes,
            ..Default::default()
        })
    };
    {
        let db = open(4, 2).unwrap();
        db.execute_sqlpp("CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id;")
            .unwrap();
        let mut txn = db.begin();
        for id in 0..40 {
            txn.write("D", &Value::object(vec![("id".into(), Value::Int(id))]), true).unwrap();
        }
        txn.commit().unwrap();
        db.flush_all().unwrap();
    }
    // same layout: fine
    assert_eq!(open(4, 2).unwrap().count("D").unwrap(), 40);
    // a different partition count scatters keys; a different node count looks
    // for a partition's components on a node that never had them (fewer
    // nodes), or takes them for a dropped index's and deletes them (more):
    // each is rejected with a clear error
    for (partitions, nodes, what) in [(8, 2, "partition"), (4, 1, "node"), (4, 4, "node")] {
        let err = open(partitions, nodes).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains(what), "{partitions}/{nodes}: {err}");
        assert!(!err.to_string().contains("  "), "{err}");
    }
    // and none of the refused opens touched what the directory holds
    assert_eq!(open(4, 2).unwrap().count("D").unwrap(), 40);
    let _ = std::fs::remove_dir_all(dir);
}

/// Whatever is stored decodes: an upsert of `[x]` over `x`, repeated, fails
/// at write once the record would nest past `MAX_DEPTH`, and the record
/// stored before it still reads.
#[test]
fn a_record_nested_past_the_bound_fails_at_write_not_at_read() {
    use asterix_adm::MAX_DEPTH;
    let db = Instance::open(InstanceConfig::default()).unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id;").unwrap();
    let record = |v: Value| Value::object(vec![("id".into(), Value::Int(1)), ("v".into(), v)]);
    let mut stored = 0;
    loop {
        let v = match db.query("SELECT VALUE d.v FROM D d").unwrap().pop() {
            Some(inner) => Value::Array(vec![inner]),
            None => Value::Int(0),
        };
        let mut txn = db.begin();
        if txn.write("D", &record(v), true).is_err() {
            break;
        }
        txn.commit().unwrap();
        stored += 1;
    }
    // `v` nests 0 to MAX_DEPTH - 1 deep, so the record 1 to MAX_DEPTH
    assert_eq!(stored, MAX_DEPTH);
    let back = db.query("SELECT VALUE d FROM D d").unwrap();
    fn depth(v: &Value) -> usize {
        match v {
            Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Value::Object(o) => 1 + o.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }
    assert_eq!(depth(&back[0]), MAX_DEPTH);
}
