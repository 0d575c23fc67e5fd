//! E9 — two query languages, one compiler (paper §IV-A).
//!
//! "Thanks to AsterixDB's Algebricks and Hyracks layers, we were able to
//! implement SQL++ fairly quickly as a peer of AQL, sharing the Algebricks
//! query algebra and many optimizer rules as well as the associated Hyracks
//! runtime operators and connectors." For a 10-query workload written in
//! both languages we assert identical optimized plans and identical results,
//! and compare compile times.

use crate::{time_it, ExpReport};
use asterix_core::datagen::DataGen;
use asterix_core::instance::{Instance, Language};

/// The paired workload: (description, SQL++, AQL).
pub fn workload() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "scan-filter-project",
            "SELECT VALUE u.name FROM GleambookUsers u WHERE u.id < 50",
            "for $u in dataset GleambookUsers where $u.id < 50 return $u.name",
        ),
        (
            "field arithmetic",
            "SELECT VALUE u.id + 1000 FROM GleambookUsers u WHERE u.id % 7 = 0",
            "for $u in dataset GleambookUsers where $u.id % 7 = 0 return $u.id + 1000",
        ),
        (
            "let binding",
            "SELECT VALUE nf FROM GleambookUsers u LET nf = COLL_COUNT(u.friendIds) WHERE nf > 5",
            "for $u in dataset GleambookUsers let $nf := coll_count($u.friendIds) where $nf > 5 return $nf",
        ),
        (
            "equi join",
            "SELECT VALUE m.messageId FROM GleambookUsers u, GleambookMessages m WHERE m.authorId = u.id AND u.id < 10",
            "for $u in dataset GleambookUsers, $m in dataset GleambookMessages where $m.authorId = $u.id and $u.id < 10 return $m.messageId",
        ),
        (
            "order by + limit",
            "SELECT VALUE u.id FROM GleambookUsers u ORDER BY u.userSince DESC LIMIT 5",
            "for $u in dataset GleambookUsers order by $u.userSince desc limit 5 return $u.id",
        ),
        (
            "group by with collection",
            "SELECT VALUE [a, COLL_COUNT(g)] FROM GleambookMessages m GROUP BY m.authorId AS a GROUP AS g",
            "for $m in dataset GleambookMessages group by $a := $m.authorId with $g return [$a, coll_count($g)]",
        ),
        (
            "quantified membership",
            "SELECT VALUE u.id FROM GleambookUsers u WHERE SOME f IN u.friendIds SATISFIES f = 7",
            "for $u in dataset GleambookUsers where some $f in $u.friendIds satisfies $f = 7 return $u.id",
        ),
        (
            "index range predicate",
            r#"SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId >= 3 AND m.authorId <= 5"#,
            r#"for $m in dataset GleambookMessages where $m.authorId >= 3 and $m.authorId <= 5 return $m.messageId"#,
        ),
        (
            "object construction",
            r#"SELECT VALUE {"id": u.id, "n": u.name} FROM GleambookUsers u WHERE u.id = 1"#,
            r#"for $u in dataset GleambookUsers where $u.id = 1 return {"id": $u.id, "n": $u.name}"#,
        ),
        (
            "string predicate",
            "SELECT VALUE m.messageId FROM GleambookMessages m WHERE contains(m.message, 'verizon')",
            "for $m in dataset GleambookMessages where contains($m.message, 'verizon') return $m.messageId",
        ),
    ]
}

pub fn run(quick: bool) -> ExpReport {
    let (users, messages) = if quick { (100, 300) } else { (500, 2_000) };
    let compile_reps = if quick { 20 } else { 100 };
    let mut report = ExpReport::new(
        "E9",
        "SQL++ and AQL as peers over one algebra, §IV-A".to_string(),
        &["query", "plans_identical", "results_identical", "sqlpp_compile_us", "aql_compile_us"],
    );
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(crate::experiments::gleambook_ddl()).unwrap();
    let mut gen = DataGen::new(9009);
    let mut txn = db.begin();
    for i in 1..=users {
        txn.write("GleambookUsers", &gen.user(i), true).unwrap();
    }
    for i in 1..=messages {
        txn.write("GleambookMessages", &gen.message(i, users), true).unwrap();
    }
    txn.commit().unwrap();
    for (name, sqlpp, aql) in workload() {
        let p1 = db.explain(sqlpp, Language::Sqlpp).unwrap();
        let p2 = db.explain(aql, Language::Aql).unwrap();
        let plans_eq = p1 == p2;
        let mut r1 = db.query(sqlpp).unwrap();
        let mut r2 = db.query_aql(aql).unwrap();
        r1.sort_by(asterix_adm::compare::total_cmp);
        r2.sort_by(asterix_adm::compare::total_cmp);
        let results_eq = r1 == r2;
        // compile-time comparison (parse + translate + optimize)
        let (_, t1) = time_it(|| {
            for _ in 0..compile_reps {
                let _ = db.explain(sqlpp, Language::Sqlpp).unwrap();
            }
        });
        let (_, t2) = time_it(|| {
            for _ in 0..compile_reps {
                let _ = db.explain(aql, Language::Aql).unwrap();
            }
        });
        report.row(&[
            name.into(),
            plans_eq.to_string(),
            results_eq.to_string(),
            format!("{:.0}", t1.as_micros() as f64 / compile_reps as f64),
            format!("{:.0}", t2.as_micros() as f64 / compile_reps as f64),
        ]);
        assert!(plans_eq, "E9 {name}: plans must match\nSQL++:\n{p1}\nAQL:\n{p2}");
        assert!(results_eq, "E9 {name}: results must match\nSQL++: {r1:?}\nAQL: {r2:?}");
    }
    report.note(
        "all 10 query pairs: plans identical = true, results identical = true — \
         the front-ends differ only in concrete syntax (the paper's shared-algebra claim)",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e09_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 10);
        assert!(r.rows.iter().all(|row| row[1] == "true"), "{:?}", r.rows);
    }
}
