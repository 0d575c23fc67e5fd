//! The optimized plans of a fixed set of queries over the Gleambook schema,
//! pinned in `plans.golden`: E9's ten pairs in both languages, and SQL++
//! queries that reach every join kind, index kind, key range and operator
//! the front end hands the compiler. A change to the parser, the translator
//! or the optimizer that moves a plan shows here as a diff; one that moves a
//! plan on purpose updates the file by hand, with the printed text.

use asterix_bench::experiments::{e09_two_languages, gleambook_ddl};
use asterix_core::instance::{Instance, Language};

/// SQL++ queries beyond E9's pairs: `(name, query)`.
const QUERIES: &[(&str, &str)] = &[
    (
        "left outer equi join",
        "SELECT u.id AS uid, m.messageId AS mid FROM GleambookUsers u \
         LEFT OUTER JOIN GleambookMessages m ON m.authorId = u.id WHERE u.id < 5",
    ),
    (
        "non-equi join",
        "SELECT VALUE [u.id, m.messageId] FROM GleambookUsers u \
         JOIN GleambookMessages m ON m.authorId < u.id WHERE u.id < 3",
    ),
    (
        "left outer non-equi join",
        "SELECT VALUE [u.id, m.messageId] FROM GleambookUsers u \
         LEFT OUTER JOIN GleambookMessages m ON m.authorId > u.id + 2",
    ),
    (
        "r-tree probe",
        "SELECT VALUE m.messageId FROM GleambookMessages m WHERE spatial_intersect(\
         m.senderLocation, create_rectangle(create_point(0.0, 0.0), create_point(10.0, 10.0)))",
    ),
    (
        "keyword probe",
        "SELECT VALUE m.messageId FROM GleambookMessages m \
         WHERE contains(m.message, 'phone') AND m.inResponseTo IS NOT NULL",
    ),
    ("primary-key point", "SELECT VALUE u FROM GleambookUsers u WHERE u.id = 42"),
    (
        "primary-key range",
        "SELECT VALUE u.name FROM GleambookUsers u WHERE u.id > 10 AND u.id <= 20",
    ),
    (
        "empty primary-key range",
        "SELECT VALUE u.name FROM GleambookUsers u WHERE u.id > 20 AND u.id < 10",
    ),
    (
        "secondary b-tree range",
        "SELECT VALUE u.id FROM GleambookUsers u \
         WHERE u.userSince >= datetime('2012-01-01T00:00:00') AND u.userSince < datetime('2013-01-01T00:00:00')",
    ),
    (
        "unknowns",
        "SELECT VALUE [m.inResponseTo IS NULL, m.inResponseTo IS NOT NULL, \
         m.senderLocation IS MISSING, m.senderLocation IS NOT MISSING, \
         m.inResponseTo IS UNKNOWN, m.inResponseTo IS NOT UNKNOWN] FROM GleambookMessages m",
    ),
    (
        "like and not like",
        "SELECT VALUE u.id FROM GleambookUsers u WHERE u.name LIKE 'Al%' AND u.alias NOT LIKE '%x'",
    ),
    (
        "concat and arithmetic",
        "SELECT VALUE u.name || ' (' || u.alias || ')' FROM GleambookUsers u \
         WHERE u.id * 2 - u.id / 3 % 4 + 1 <> 7 AND u.id != 9",
    ),
    (
        "unary minus and not",
        "SELECT VALUE -(u.id + 1) FROM GleambookUsers u WHERE NOT (u.id >= 5 OR u.id < -3)",
    ),
    (
        "with constant",
        "WITH lim AS 10 + 5, tag AS 'u' || '-' SELECT VALUE tag || to_string(u.id) \
         FROM GleambookUsers u WHERE u.id < lim",
    ),
    (
        "not between and not in",
        "SELECT VALUE u.id FROM GleambookUsers u \
         WHERE u.id NOT BETWEEN 3 AND 8 AND u.id NOT IN [1, 2]",
    ),
    (
        "left outer unnest",
        "SELECT VALUE [u.id, e.organizationName] FROM GleambookUsers u \
         LEFT OUTER UNNEST u.employment e WHERE u.id < 3",
    ),
];

/// Each query's name, language, text and plan, in the file's format.
fn explained() -> String {
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(gleambook_ddl()).unwrap();
    let mut out = String::new();
    let mut push = |name: &str, language: Language, text: &str| {
        let plan = db.explain(text, language).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push_str(&format!("== {name} ({language:?})\n{text}\n{plan}\n"));
    };
    for (name, sqlpp, aql) in e09_two_languages::workload() {
        push(name, Language::Sqlpp, sqlpp);
        push(name, Language::Aql, aql);
    }
    for (name, sqlpp) in QUERIES {
        push(name, Language::Sqlpp, sqlpp);
    }
    out
}

#[test]
fn the_plans_are_the_pinned_ones() {
    let golden = include_str!("plans.golden");
    let actual = explained();
    if actual != golden {
        let line = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
        eprintln!("{actual}");
        panic!(
            "the plans differ from tests/plans.golden, first at line {} (the plans printed above)",
            line.unwrap_or_else(|| actual.lines().count().min(golden.lines().count())) + 1
        );
    }
}
