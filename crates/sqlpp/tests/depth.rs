//! No query nests deep enough to exhaust a thread's stack: the SQL++ and AQL
//! parsers refuse nesting past `MAX_DEPTH` with a syntax error, and parse
//! what lies at the bound. Each 100 000-deep query is parsed on a thread with
//! a 2 MiB stack, as a server's worker might have; CI runs these in release
//! too, where the abort they guard against was seen.

use asterix_adm::{Value, MAX_DEPTH};
use asterix_sqlpp::ast::{Expr, SelectClause};
use asterix_sqlpp::parser::parse_query;
use asterix_sqlpp::{parse_aql, parse_sqlpp, Query, SqlppError, Stmt};

const DEEP: usize = 100_000;

/// Whether parsing `text` with `parse`, on a thread with a 2 MiB stack, is
/// a syntax error.
fn refused<T: Send + 'static>(parse: fn(&str) -> Result<T, SqlppError>, text: String) -> bool {
    let parsed = std::thread::Builder::new().stack_size(2 << 20).spawn(move || parse(&text).err()).unwrap();
    matches!(asterix_storage::lock_order::join(parsed).unwrap(), Some(SqlppError::Parse { .. }))
}

fn wrapped(open: &str, inner: &str, close: &str, depth: usize) -> String {
    format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn the_sqlpp_parser_refuses_deep_nesting_with_its_error() {
    let deep = |open, inner, close| wrapped(open, inner, close, DEEP);
    for query in [
        format!("SELECT VALUE {}", deep("(", "1", ")")),
        format!("SELECT VALUE {}", deep("[", "1", "]")),
        format!("SELECT VALUE {}", deep("{\"a\": ", "1", "}")),
        format!("SELECT VALUE {}", deep("f(", "1", ")")),
        format!("SELECT VALUE {}", deep("(SELECT VALUE ", "1", ")")),
        format!("SELECT VALUE {}1", "NOT ".repeat(DEEP)),
        format!("SELECT VALUE {}1", "- ".repeat(DEEP)),
        format!("SELECT VALUE 1{}", " UNION ALL SELECT VALUE 1".repeat(DEEP)),
    ] {
        let head = query[..40].to_string();
        assert!(refused(parse_query, query), "{head}…");
    }
    let ty = format!("CREATE TYPE T AS {{ a: {} }};", deep("[", "int", "]"));
    assert!(refused(parse_sqlpp, ty));
}

#[test]
fn the_aql_parser_refuses_deep_nesting_with_its_error() {
    assert!(refused(parse_aql, wrapped("(", "1", ")", DEEP)));
    assert!(refused(parse_aql, format!("for $x in {} return $x", wrapped("[", "1", "]", DEEP))));
    assert!(refused(parse_aql, wrapped("(for $x in [1] return ", "$x", ")", DEEP)));
}

/// How many array constructors nest in `e`, around the literal `1`.
fn arrays_around_one(e: &Expr) -> Option<usize> {
    match e {
        Expr::ArrayCtor(items) => match items.as_slice() {
            [inner] => arrays_around_one(inner).map(|n| n + 1),
            _ => None,
        },
        Expr::Literal(Value::Int(1)) => Some(0),
        _ => None,
    }
}

fn element(q: &Query) -> &Expr {
    match &q.select {
        Some(SelectClause::Element(e)) => e,
        other => panic!("{other:?}"),
    }
}

#[test]
fn both_parsers_take_what_lies_at_the_bound() {
    // the query's own expression is one level: `MAX_DEPTH - 1` arrays inside it
    let at_bound = wrapped("[", "1", "]", MAX_DEPTH - 1);
    let q = parse_query(&format!("SELECT VALUE {at_bound}")).unwrap();
    assert_eq!(arrays_around_one(element(&q)), Some(MAX_DEPTH - 1));
    match parse_aql(&at_bound).unwrap() {
        Stmt::Query(q) => assert_eq!(arrays_around_one(element(&q)), Some(MAX_DEPTH - 1)),
        other => panic!("{other:?}"),
    }
    let over = wrapped("[", "1", "]", MAX_DEPTH);
    assert!(matches!(parse_query(&format!("SELECT VALUE {over}")), Err(SqlppError::Parse { .. })));
    assert!(matches!(parse_aql(&over), Err(SqlppError::Parse { .. })));
}
