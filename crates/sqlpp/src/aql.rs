//! AQL — the original query language (paper §IV-A).
//!
//! AQL "came from taking XQuery ... and tossing out its XML cruft": a FLWOR
//! core of `for`/`let`/`where`/`group by`/`order by`/`limit`/`return`
//! clauses over `$variables` and `dataset Name` references. This parser
//! produces the same [`Query`] AST as the SQL++ parser, so both languages
//! share translation, optimization, and execution — the paper's "peer
//! languages over one algebra" point, verified by experiment E9.
//!
//! Supported AQL shape:
//!
//! ```text
//! for $u in dataset GleambookUsers
//! let $nf := coll_count($u.friendIds)
//! where $u.userSince >= datetime("2012-01-01T00:00:00")
//! group by $k := $nf with $u
//! order by $k desc
//! limit 10
//! return { "numFriends": $k, "count": coll_count($u) }
//! ```

use crate::ast::*;
use crate::error::Result;
use crate::lexer::{tokenize, Kw, TokenKind};
use crate::parser::Parser;
use asterix_algebricks::expr::Func;

/// Parses one AQL statement (a FLWOR query or a bare expression).
pub fn parse_aql(input: &str) -> Result<Stmt> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let q = if matches!(p.peek(), TokenKind::Keyword(Kw::For) | TokenKind::Keyword(Kw::Let)) {
        parse_flwor(&mut p)?
    } else {
        Query::of_expr(p.parse_expr()?)
    };
    p.eat(&TokenKind::Semi);
    if !p.at_eof() {
        return p.err(format!("unexpected trailing {:?}", p.peek()));
    }
    Ok(Stmt::Query(q))
}

/// Parses a FLWOR block (also used for AQL subqueries inside parentheses).
pub(crate) fn parse_flwor(p: &mut Parser) -> Result<Query> {
    let mut q = Query::default();
    loop {
        if p.eat_kw(Kw::For) {
            loop {
                let var = variable(p)?;
                p.expect_kw(Kw::In)?;
                let expr = p.parse_expr()?;
                q.from.push(FromTerm { expr, alias: var, joins: Vec::new() });
                if !p.eat(&TokenKind::Comma) {
                    break;
                }
            }
            continue;
        }
        if p.eat_kw(Kw::Let) {
            loop {
                let var = variable(p)?;
                p.expect(&TokenKind::Assign)?;
                let expr = p.parse_expr()?;
                q.lets.push((var, expr));
                if !p.eat(&TokenKind::Comma) {
                    break;
                }
            }
            continue;
        }
        if p.eat_kw(Kw::Where) {
            let cond = p.parse_expr()?;
            q.where_clause = Some(match q.where_clause.take() {
                None => cond,
                Some(prev) => Expr::Binary(Func::And, Box::new(prev), Box::new(cond)),
            });
            continue;
        }
        if p.eat_kw(Kw::Group) {
            p.expect_kw(Kw::By)?;
            let mut keys = Vec::new();
            loop {
                // `$k := expr` or bare `expr`
                let (alias, expr) = if matches!(p.peek(), TokenKind::Variable(_)) {
                    let v = variable(p)?;
                    p.expect(&TokenKind::Assign)?;
                    (Some(v), p.parse_expr()?)
                } else {
                    (None, p.parse_expr()?)
                };
                keys.push((expr, alias));
                if !p.eat(&TokenKind::Comma) {
                    break;
                }
            }
            // `with $v` / `keeping $v`: the grouped variable. AQL regroups
            // each listed variable into a collection of its per-row values;
            // we expose it as the SQL++ group variable.
            let group_as = if p.eat_kw(Kw::With) || p.eat_kw(Kw::Keeping) {
                let v = variable(p)?;
                while p.eat(&TokenKind::Comma) {
                    // additional kept variables collapse into the same group
                    let _ = variable(p)?;
                }
                Some(v)
            } else {
                None
            };
            q.group_by = Some(GroupByClause { keys, group_as });
            continue;
        }
        if p.eat_kw(Kw::Order) {
            p.expect_kw(Kw::By)?;
            loop {
                let e = p.parse_expr()?;
                let desc = if p.eat_kw(Kw::Desc) {
                    true
                } else {
                    p.eat_kw(Kw::Asc);
                    false
                };
                q.order_by.push((e, desc));
                if !p.eat(&TokenKind::Comma) {
                    break;
                }
            }
            continue;
        }
        if p.eat_kw(Kw::Limit) {
            match p.bump() {
                TokenKind::IntLit(n) if n >= 0 => q.limit = Some(n as u64),
                other => return p.err(format!("limit expects a number, found {other:?}")),
            }
            if p.eat_kw(Kw::Offset) {
                match p.bump() {
                    TokenKind::IntLit(n) if n >= 0 => q.offset = Some(n as u64),
                    other => return p.err(format!("offset expects a number, found {other:?}")),
                }
            }
            continue;
        }
        if p.eat_kw(Kw::Return) {
            let e = p.parse_expr()?;
            q.select = Some(SelectClause::Element(e));
            break;
        }
        return p.err(format!("expected FLWOR clause, found {:?}", p.peek()));
    }
    Ok(q)
}

fn variable(p: &mut Parser) -> Result<String> {
    match p.bump() {
        TokenKind::Variable(v) => Ok(v),
        other => {
            p.pos = p.pos.saturating_sub(1);
            p.err(format!("expected $variable, found {other:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(input: &str) -> Query {
        match parse_aql(input).unwrap() {
            Stmt::Query(q) => q,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simple_flwor() {
        let q = query(
            r#"for $u in dataset GleambookUsers
               where $u.id > 3
               return $u.name"#,
        );
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].alias, "u");
        assert_eq!(q.from[0].expr, Expr::Ident("GleambookUsers".into()));
        assert!(q.where_clause.is_some());
        assert!(matches!(q.select, Some(SelectClause::Element(Expr::Field(_, _)))));
    }

    #[test]
    fn let_and_order_and_limit() {
        let q = query(
            r#"for $m in dataset('Messages')
               let $len := string_length($m.message)
               order by $len desc
               limit 5 offset 2
               return { "id": $m.messageId, "len": $len }"#,
        );
        assert_eq!(q.lets.len(), 1);
        assert_eq!(q.lets[0].0, "len");
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].1, "desc");
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
    }

    #[test]
    fn group_by_with_variable() {
        let q = query(
            r#"for $m in dataset Messages
               group by $a := $m.authorId with $m
               return { "author": $a, "n": coll_count($m) }"#,
        );
        let g = q.group_by.unwrap();
        assert_eq!(g.keys.len(), 1);
        assert_eq!(g.keys[0].1.as_deref(), Some("a"));
        assert_eq!(g.group_as.as_deref(), Some("m"));
    }

    #[test]
    fn multiple_for_clauses_cross() {
        let q = query(
            r#"for $u in dataset Users
               for $m in dataset Messages
               where $m.authorId = $u.id
               return { "u": $u.name, "m": $m.message }"#,
        );
        assert_eq!(q.from.len(), 2);
    }

    #[test]
    fn bare_expression_query() {
        let q = query("1 + 2");
        assert!(matches!(q.select, Some(SelectClause::Element(Expr::Binary(Func::Add, _, _)))));
        assert!(q.from.is_empty());
    }

    #[test]
    fn quantified_in_aql() {
        let q = query(
            r#"for $u in dataset Users
               where some $f in $u.friendIds satisfies $f = 5
               return $u"#,
        );
        assert!(matches!(q.where_clause, Some(Expr::Quantified { some: true, .. })));
    }

    #[test]
    fn rejects_missing_return() {
        assert!(parse_aql("for $x in dataset T where $x.a > 1").is_err());
    }
}
