//! SQL++ recursive-descent parser.
//!
//! Covers the language of paper Figure 3: DDL (types, datasets, external
//! datasets, indexes), DML (INSERT/UPSERT/DELETE/LOAD), and the SELECT core
//! with WITH/LET bindings, joins, UNNEST, quantified predicates
//! (`SOME ... SATISFIES`), grouping with `GROUP AS`, HAVING, ORDER BY,
//! LIMIT/OFFSET, and subqueries.

use crate::ast::*;
use crate::error::{Result, SqlppError};
use crate::lexer::{tokenize, Kw, Token, TokenKind};
use asterix_adm::types::{Field, TypeExpr};
use asterix_adm::{Value, MAX_DEPTH};
use asterix_algebricks::expr::Func;
use asterix_algebricks::plan::JoinKind;
use asterix_algebricks::source::IndexKind;

/// Parses a semicolon-separated list of statements.
pub fn parse_statements(input: &str) -> Result<Vec<Stmt>> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semi) {}
        if p.at_eof() {
            break;
        }
        out.push(p.parse_statement()?);
    }
    Ok(out)
}

/// Parses a single SQL++ query expression.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let q = p.parse_query()?;
    p.eat(&TokenKind::Semi);
    p.expect_eof()?;
    Ok(q)
}

pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: usize,
    /// Expressions, queries and types open around what is being parsed.
    depth: usize,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<Token>) -> Parser {
        Parser { tokens, pos: 0, depth: 0 }
    }

    /// Parses what `parse` does one level deeper; refuses to go past
    /// [`MAX_DEPTH`], so that no query, however deep, exhausts the stack.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("expressions nest deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    pub(crate) fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    pub(crate) fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    pub(crate) fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let t = &self.tokens[self.pos];
        Err(SqlppError::Parse { line: t.line, column: t.column, message: msg.into() })
    }

    pub(crate) fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_kw(&mut self, kw: Kw) -> bool {
        self.eat(&TokenKind::Keyword(kw))
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            self.err(format!("expected {kind:?}, found {:?}", self.peek()))
        }
    }

    pub(crate) fn expect_kw(&mut self, kw: Kw) -> Result<()> {
        self.expect(&TokenKind::Keyword(kw))
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            self.err(format!("unexpected trailing {:?}", self.peek()))
        }
    }

    /// Accepts an identifier (or keyword used as a name, e.g. `time`).
    pub(crate) fn ident(&mut self) -> Result<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::Keyword(Kw::Value) => Ok("value".into()),
            TokenKind::Keyword(Kw::Type) => Ok("type".into()),
            TokenKind::Keyword(Kw::Key) => Ok("key".into()),
            TokenKind::Keyword(Kw::Keyword) => Ok("keyword".into()),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    // -------------------------------------------------------------------
    // statements
    // -------------------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Stmt> {
        match self.peek() {
            TokenKind::Keyword(Kw::Create) => self.parse_create().map(Stmt::Ddl),
            TokenKind::Keyword(Kw::Drop) => self.parse_drop().map(Stmt::Ddl),
            TokenKind::Keyword(Kw::Insert) | TokenKind::Keyword(Kw::Upsert) => {
                self.parse_insert_upsert().map(Stmt::Dml)
            }
            TokenKind::Keyword(Kw::Delete) => self.parse_delete().map(Stmt::Dml),
            TokenKind::Keyword(Kw::Load) => self.parse_load().map(Stmt::Dml),
            _ => self.parse_query().map(Stmt::Query),
        }
    }

    fn parse_create(&mut self) -> Result<DdlStmt> {
        self.expect_kw(Kw::Create)?;
        if self.eat_kw(Kw::Type) {
            let name = self.ident()?;
            self.expect_kw(Kw::As)?;
            let is_closed = self.eat_kw(Kw::Closed);
            self.expect(&TokenKind::LBrace)?;
            let mut fields = Vec::new();
            if !self.eat(&TokenKind::RBrace) {
                loop {
                    let fname = match self.bump() {
                        TokenKind::Ident(s) => s,
                        TokenKind::StringLit(s) => s,
                        other => return self.err(format!("expected field name, found {other:?}")),
                    };
                    self.expect(&TokenKind::Colon)?;
                    let ty = self.parse_type_expr()?;
                    let optional = self.eat(&TokenKind::Question);
                    fields.push(Field { name: fname, ty, optional });
                    if self.eat(&TokenKind::RBrace) {
                        break;
                    }
                    self.expect(&TokenKind::Comma)?;
                    // allow trailing comma
                    if self.eat(&TokenKind::RBrace) {
                        break;
                    }
                }
            }
            return Ok(DdlStmt::CreateType { name, is_closed, fields });
        }
        if self.eat_kw(Kw::External) {
            self.expect_kw(Kw::Dataset)?;
            let name = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let type_name = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            self.expect_kw(Kw::Using)?;
            let adapter = self.ident()?;
            let properties = self.parse_properties()?;
            return Ok(DdlStmt::CreateExternalDataset { name, type_name, adapter, properties });
        }
        if self.eat_kw(Kw::Dataset) {
            let name = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let type_name = self.ident()?;
            self.expect(&TokenKind::RParen)?;
            self.expect_kw(Kw::Primary)?;
            self.expect_kw(Kw::Key)?;
            let mut primary_key = vec![self.ident()?];
            while self.eat(&TokenKind::Comma) {
                primary_key.push(self.ident()?);
            }
            return Ok(DdlStmt::CreateDataset { name, type_name, primary_key });
        }
        if self.eat_kw(Kw::Index) {
            let name = self.ident()?;
            self.expect_kw(Kw::On)?;
            let dataset = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut field = vec![self.ident()?];
            while self.eat(&TokenKind::Dot) {
                field.push(self.ident()?);
            }
            self.expect(&TokenKind::RParen)?;
            let kind = if self.eat_kw(Kw::Type) {
                match self.bump() {
                    TokenKind::Keyword(Kw::Btree) => IndexKind::BTree,
                    TokenKind::Keyword(Kw::Rtree) => IndexKind::RTree,
                    TokenKind::Keyword(Kw::Keyword) => IndexKind::Keyword,
                    other => return self.err(format!("unknown index type {other:?}")),
                }
            } else {
                IndexKind::BTree
            };
            return Ok(DdlStmt::CreateIndex { name, dataset, field, kind });
        }
        self.err("expected TYPE, DATASET, EXTERNAL DATASET, or INDEX after CREATE")
    }

    fn parse_type_expr(&mut self) -> Result<TypeExpr> {
        if self.eat(&TokenKind::LBracket) {
            let inner = self.nested(Self::parse_type_expr)?;
            self.expect(&TokenKind::RBracket)?;
            return Ok(TypeExpr::Array(Box::new(inner)));
        }
        if self.eat(&TokenKind::LBraceBrace) {
            let inner = self.nested(Self::parse_type_expr)?;
            self.expect(&TokenKind::RBraceBrace)?;
            return Ok(TypeExpr::Multiset(Box::new(inner)));
        }
        Ok(TypeExpr::Named(self.ident()?))
    }

    fn parse_properties(&mut self) -> Result<Vec<(String, String)>> {
        // (("key"="value"), ("key"="value"), ...)
        self.expect(&TokenKind::LParen)?;
        let mut props = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let key = match self.bump() {
                TokenKind::StringLit(s) => s,
                other => return self.err(format!("expected property name string, found {other:?}")),
            };
            self.expect(&TokenKind::Eq)?;
            let value = match self.bump() {
                TokenKind::StringLit(s) => s,
                other => return self.err(format!("expected property value string, found {other:?}")),
            };
            self.expect(&TokenKind::RParen)?;
            props.push((key, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(props)
    }

    fn parse_drop(&mut self) -> Result<DdlStmt> {
        self.expect_kw(Kw::Drop)?;
        if self.eat_kw(Kw::Dataset) {
            return Ok(DdlStmt::DropDataset { name: self.ident()? });
        }
        if self.eat_kw(Kw::Type) {
            return Ok(DdlStmt::DropType { name: self.ident()? });
        }
        if self.eat_kw(Kw::Index) {
            let dataset = self.ident()?;
            self.expect(&TokenKind::Dot)?;
            let name = self.ident()?;
            return Ok(DdlStmt::DropIndex { dataset, name });
        }
        self.err("expected DATASET, TYPE, or INDEX after DROP")
    }

    fn parse_insert_upsert(&mut self) -> Result<DmlStmt> {
        let is_upsert = match self.bump() {
            TokenKind::Keyword(Kw::Insert) => false,
            TokenKind::Keyword(Kw::Upsert) => true,
            _ => unreachable!(),
        };
        self.expect_kw(Kw::Into)?;
        let dataset = self.ident()?;
        // parenthesized value expression (or bare constructor)
        let value = if self.eat(&TokenKind::LParen) {
            let e = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            e
        } else {
            self.parse_expr()?
        };
        Ok(DmlStmt::InsertUpsert { dataset, is_upsert, value })
    }

    fn parse_delete(&mut self) -> Result<DmlStmt> {
        self.expect_kw(Kw::Delete)?;
        self.expect_kw(Kw::From)?;
        let dataset = self.ident()?;
        let var = if self.eat_kw(Kw::As) || matches!(self.peek(), TokenKind::Ident(_)) {
            Some(self.ident()?)
        } else {
            None
        };
        let condition = if self.eat_kw(Kw::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(DmlStmt::Delete { dataset, var, condition })
    }

    fn parse_load(&mut self) -> Result<DmlStmt> {
        self.expect_kw(Kw::Load)?;
        self.expect_kw(Kw::Dataset)?;
        let dataset = self.ident()?;
        self.expect_kw(Kw::Using)?;
        let adapter = self.ident()?;
        let properties = self.parse_properties()?;
        Ok(DmlStmt::Load { dataset, adapter, properties })
    }

    // -------------------------------------------------------------------
    // queries
    // -------------------------------------------------------------------

    pub(crate) fn parse_query(&mut self) -> Result<Query> {
        let mut q = Query::default();
        // WITH bindings
        if self.eat_kw(Kw::With) {
            loop {
                let name = self.ident()?;
                self.expect_kw(Kw::As)?;
                let e = self.parse_expr()?;
                q.with.push((name, e));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect_kw(Kw::Select)?;
        q.distinct = self.eat_kw(Kw::Distinct);
        q.select = Some(if self.eat_kw(Kw::Value) || self.eat_kw(Kw::Element) {
            SelectClause::Element(self.parse_expr()?)
        } else if self.eat(&TokenKind::Star) {
            SelectClause::Star
        } else {
            let mut fields = Vec::new();
            loop {
                let e = self.parse_expr()?;
                let alias = if self.eat_kw(Kw::As) {
                    Some(self.ident()?)
                } else {
                    None
                };
                fields.push((e, alias));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            SelectClause::Fields(fields)
        });
        if self.eat_kw(Kw::From) {
            loop {
                q.from.push(self.parse_from_term()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        while self.eat_kw(Kw::Let) {
            loop {
                let name = self.ident()?;
                if !self.eat(&TokenKind::Eq) {
                    self.expect(&TokenKind::Assign)?;
                }
                let e = self.parse_expr()?;
                q.lets.push((name, e));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::Where) {
            q.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_kw(Kw::Group) {
            self.expect_kw(Kw::By)?;
            let mut keys = Vec::new();
            loop {
                let e = self.parse_expr()?;
                let alias = if self.eat_kw(Kw::As) { Some(self.ident()?) } else { None };
                keys.push((e, alias));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            let group_as = if self.eat_kw(Kw::Group) {
                self.expect_kw(Kw::As)?;
                Some(self.ident()?)
            } else {
                None
            };
            q.group_by = Some(GroupByClause { keys, group_as });
        }
        if self.eat_kw(Kw::Having) {
            q.having = Some(self.parse_expr()?);
        }
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            loop {
                let e = self.parse_expr()?;
                let desc = if self.eat_kw(Kw::Desc) {
                    true
                } else {
                    self.eat_kw(Kw::Asc);
                    false
                };
                q.order_by.push((e, desc));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Kw::Limit) {
            match self.bump() {
                TokenKind::IntLit(n) if n >= 0 => q.limit = Some(n as u64),
                other => return self.err(format!("LIMIT expects a number, found {other:?}")),
            }
        }
        if self.eat_kw(Kw::Offset) {
            match self.bump() {
                TokenKind::IntLit(n) if n >= 0 => q.offset = Some(n as u64),
                other => return self.err(format!("OFFSET expects a number, found {other:?}")),
            }
        }
        while self.eat_kw(Kw::Union) {
            self.expect_kw(Kw::All)?;
            let arm = self.nested(Self::parse_query)?;
            // flatten right-nested unions
            q.union_with.push(Query { union_with: Vec::new(), ..arm.clone() });
            q.union_with.extend(arm.union_with);
        }
        Ok(q)
    }

    fn default_alias(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::Ident(s) => Some(s.clone()),
            Expr::Field(_, name) => Some(name.clone()),
            _ => None,
        }
    }

    fn parse_from_term(&mut self) -> Result<FromTerm> {
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw(Kw::As) || matches!(self.peek(), TokenKind::Ident(_)) {
            self.ident()?
        } else {
            match self.default_alias(&expr) {
                Some(a) => a,
                None => return self.err("FROM term requires an alias"),
            }
        };
        let mut joins = Vec::new();
        loop {
            if self.eat_kw(Kw::Join) || {
                if *self.peek() == TokenKind::Keyword(Kw::Inner)
                    && *self.peek2() == TokenKind::Keyword(Kw::Join)
                {
                    self.bump();
                    self.bump();
                    true
                } else {
                    false
                }
            } {
                let (e, a) = self.parse_join_source()?;
                self.expect_kw(Kw::On)?;
                let on = self.parse_expr()?;
                joins.push(JoinStep::Join { kind: JoinKind::Inner, expr: e, alias: a, on });
                continue;
            }
            if *self.peek() == TokenKind::Keyword(Kw::Left) {
                // LEFT [OUTER] JOIN | LEFT [OUTER] UNNEST
                let save = self.pos;
                self.bump();
                self.eat_kw(Kw::Outer);
                if self.eat_kw(Kw::Join) {
                    let (e, a) = self.parse_join_source()?;
                    self.expect_kw(Kw::On)?;
                    let on = self.parse_expr()?;
                    joins.push(JoinStep::Join {
                        kind: JoinKind::LeftOuter,
                        expr: e,
                        alias: a,
                        on,
                    });
                    continue;
                }
                if self.eat_kw(Kw::Unnest) {
                    let e = self.parse_expr()?;
                    let a = self.alias_for(&e)?;
                    joins.push(JoinStep::Unnest { expr: e, alias: a, outer: true });
                    continue;
                }
                self.pos = save;
                break;
            }
            if self.eat_kw(Kw::Unnest) {
                let e = self.parse_expr()?;
                let a = self.alias_for(&e)?;
                joins.push(JoinStep::Unnest { expr: e, alias: a, outer: false });
                continue;
            }
            break;
        }
        Ok(FromTerm { expr, alias, joins })
    }

    fn alias_for(&mut self, e: &Expr) -> Result<String> {
        if self.eat_kw(Kw::As) || matches!(self.peek(), TokenKind::Ident(_)) {
            self.ident()
        } else {
            match self.default_alias(e) {
                Some(a) => Ok(a),
                None => self.err("binding requires an alias"),
            }
        }
    }

    fn parse_join_source(&mut self) -> Result<(Expr, String)> {
        let e = self.parse_expr()?;
        let a = self.alias_for(&e)?;
        Ok((e, a))
    }

    // -------------------------------------------------------------------
    // expressions (precedence climbing)
    // -------------------------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut e = self.parse_and()?;
        while self.eat_kw(Kw::Or) {
            let rhs = self.parse_and()?;
            e = Expr::Binary(Func::Or, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut e = self.parse_not()?;
        while self.eat_kw(Kw::And) {
            let rhs = self.parse_not()?;
            e = Expr::Binary(Func::And, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw(Kw::Not) {
            let e = self.nested(Self::parse_not)?;
            return Ok(Expr::Unary(Func::Not, Box::new(e)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        // quantified expressions sit at comparison level
        if matches!(self.peek(), TokenKind::Keyword(Kw::Some) | TokenKind::Keyword(Kw::Every)) {
            let some = matches!(self.bump(), TokenKind::Keyword(Kw::Some));
            let var = match self.bump() {
                TokenKind::Ident(s) => s,
                TokenKind::Variable(s) => s,
                other => return self.err(format!("expected quantifier variable, found {other:?}")),
            };
            self.expect_kw(Kw::In)?;
            let coll = self.parse_concat()?;
            self.expect_kw(Kw::Satisfies)?;
            let pred = self.parse_expr()?;
            return Ok(Expr::Quantified {
                some,
                var,
                collection: Box::new(coll),
                satisfies: Box::new(pred),
            });
        }
        if self.eat_kw(Kw::Exists) {
            let e = self.parse_concat()?;
            return Ok(Expr::Exists(Box::new(e)));
        }
        let e = self.parse_concat()?;
        // IS [NOT] NULL/MISSING/UNKNOWN
        if self.eat_kw(Kw::Is) {
            let negated = self.eat_kw(Kw::Not);
            let test = match self.bump() {
                TokenKind::Keyword(Kw::Null) => Func::IsNull,
                TokenKind::Keyword(Kw::Missing) => Func::IsMissing,
                TokenKind::Keyword(Kw::Unknown) => Func::IsUnknown,
                other => return self.err(format!("expected NULL/MISSING/UNKNOWN, found {other:?}")),
            };
            let e = Expr::Unary(test, Box::new(e));
            return Ok(if negated { Expr::Unary(Func::Not, Box::new(e)) } else { e });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = if matches!(self.peek(), TokenKind::Keyword(Kw::Not))
            && matches!(
                self.peek2(),
                TokenKind::Keyword(Kw::Between) | TokenKind::Keyword(Kw::In) | TokenKind::Keyword(Kw::Like)
            ) {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw(Kw::Between) {
            let lo = self.parse_concat()?;
            self.expect_kw(Kw::And)?;
            let hi = self.parse_concat()?;
            return Ok(Expr::Between {
                value: Box::new(e),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_kw(Kw::In) {
            let coll = self.parse_concat()?;
            return Ok(Expr::In { value: Box::new(e), collection: Box::new(coll), negated });
        }
        if self.eat_kw(Kw::Like) {
            let pat = self.parse_concat()?;
            let like = Expr::Binary(Func::Like, Box::new(e), Box::new(pat));
            return Ok(if negated {
                Expr::Unary(Func::Not, Box::new(like))
            } else {
                like
            });
        }
        let op = match self.peek() {
            TokenKind::Eq => Func::Eq,
            TokenKind::NotEq => Func::Ne,
            TokenKind::Lt => Func::Lt,
            TokenKind::Le => Func::Le,
            TokenKind::Gt => Func::Gt,
            TokenKind::Ge => Func::Ge,
            _ => return Ok(e),
        };
        self.bump();
        let rhs = self.parse_concat()?;
        Ok(Expr::Binary(op, Box::new(e), Box::new(rhs)))
    }

    fn parse_concat(&mut self) -> Result<Expr> {
        let mut e = self.parse_additive()?;
        while self.eat(&TokenKind::ConcatOp) {
            let rhs = self.parse_additive()?;
            e = Expr::Binary(Func::Concat, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut e = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => Func::Add,
                TokenKind::Minus => Func::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            e = Expr::Binary(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut e = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => Func::Mul,
                TokenKind::Slash => Func::Div,
                TokenKind::Percent => Func::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            e = Expr::Binary(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let e = self.nested(Self::parse_unary)?;
            return Ok(match e {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Double(d)) => Expr::Literal(Value::Double(-d)),
                other => Expr::Unary(Func::Neg, Box::new(other)),
            });
        }
        if self.eat(&TokenKind::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            if self.eat(&TokenKind::Dot) {
                let name = self.ident()?;
                e = Expr::Field(Box::new(e), name);
                continue;
            }
            if self.eat(&TokenKind::LBracket) {
                let idx = self.parse_expr()?;
                self.expect(&TokenKind::RBracket)?;
                e = Expr::Index(Box::new(e), Box::new(idx));
                continue;
            }
            break;
        }
        Ok(e)
    }

    pub(crate) fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            TokenKind::IntLit(i) => Ok(Expr::Literal(Value::Int(i))),
            TokenKind::DoubleLit(d) => Ok(Expr::Literal(Value::Double(d))),
            TokenKind::StringLit(s) => Ok(Expr::Literal(Value::String(s))),
            TokenKind::Keyword(Kw::True) => Ok(Expr::Literal(Value::Bool(true))),
            TokenKind::Keyword(Kw::False) => Ok(Expr::Literal(Value::Bool(false))),
            TokenKind::Keyword(Kw::Null) => Ok(Expr::Literal(Value::Null)),
            TokenKind::Keyword(Kw::Missing) => Ok(Expr::Literal(Value::Missing)),
            TokenKind::Variable(name) => Ok(Expr::Ident(name)),
            TokenKind::Keyword(Kw::Dataset) => {
                // AQL-style `dataset Name` / `dataset('Name')`
                if self.eat(&TokenKind::LParen) {
                    let name = match self.bump() {
                        TokenKind::StringLit(s) => s,
                        TokenKind::Ident(s) => s,
                        other => return self.err(format!("expected dataset name, found {other:?}")),
                    };
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Ident(name))
                } else {
                    Ok(Expr::Ident(self.ident()?))
                }
            }
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    // function call
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        // COUNT(*) sugar
                        if self.eat(&TokenKind::Star) {
                            self.expect(&TokenKind::RParen)?;
                            return Ok(Expr::Call(
                                name.to_lowercase(),
                                vec![Expr::Literal(Value::from("*"))],
                            ));
                        }
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(&TokenKind::Comma)?;
                        }
                    }
                    Ok(Expr::Call(name.to_lowercase(), args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            TokenKind::LParen => {
                // subquery or parenthesized expression
                if matches!(
                    self.peek(),
                    TokenKind::Keyword(Kw::Select) | TokenKind::Keyword(Kw::With) | TokenKind::Keyword(Kw::For)
                ) {
                    let q = if matches!(self.peek(), TokenKind::Keyword(Kw::For)) {
                        crate::aql::parse_flwor(self)?
                    } else {
                        self.parse_query()?
                    };
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => {
                let mut items = Vec::new();
                if !self.eat(&TokenKind::RBracket) {
                    loop {
                        items.push(self.parse_expr()?);
                        if self.eat(&TokenKind::RBracket) {
                            break;
                        }
                        self.expect(&TokenKind::Comma)?;
                    }
                }
                Ok(Expr::ArrayCtor(items))
            }
            TokenKind::LBraceBrace => {
                let mut items = Vec::new();
                if !self.eat(&TokenKind::RBraceBrace) {
                    loop {
                        items.push(self.parse_expr()?);
                        if self.eat(&TokenKind::RBraceBrace) {
                            break;
                        }
                        self.expect(&TokenKind::Comma)?;
                    }
                }
                Ok(Expr::MultisetCtor(items))
            }
            TokenKind::LBrace => {
                let mut pairs = Vec::new();
                if !self.eat(&TokenKind::RBrace) {
                    loop {
                        let key = match self.bump() {
                            TokenKind::StringLit(s) => Expr::Literal(Value::String(s)),
                            TokenKind::Ident(s) => Expr::Literal(Value::String(s)),
                            other => {
                                return self.err(format!("expected field name, found {other:?}"))
                            }
                        };
                        self.expect(&TokenKind::Colon)?;
                        let v = self.parse_expr()?;
                        pairs.push((key, v));
                        if self.eat(&TokenKind::RBrace) {
                            break;
                        }
                        self.expect(&TokenKind::Comma)?;
                    }
                }
                Ok(Expr::ObjectCtor(pairs))
            }
            TokenKind::Keyword(Kw::Case) => {
                let mut arms = Vec::new();
                while self.eat_kw(Kw::When) {
                    let c = self.parse_expr()?;
                    self.expect_kw(Kw::Then)?;
                    let t = self.parse_expr()?;
                    arms.push((c, t));
                }
                let els = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_kw(Kw::End)?;
                Ok(Expr::Case(arms, els))
            }
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("unexpected token {other:?} in expression"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3a_ddl_parses() {
        let stmts = parse_statements(
            r#"
            CREATE TYPE GleambookUserType AS {
                id: int,
                alias: string,
                name: string,
                userSince: datetime,
                friendIds: {{ int }},
                employment: [EmploymentType]
            };
            CREATE TYPE EmploymentType AS {
                organizationName: string,
                startDate: date,
                endDate: date?
            };
            CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
            CREATE INDEX gbUserSinceIdx ON GleambookUsers(userSince);
            CREATE INDEX gbSenderLocIndex ON GleambookMessages(senderLocation) TYPE RTREE;
            CREATE INDEX gbMessageIdx ON GleambookMessages(message) TYPE KEYWORD;
            "#,
        )
        .unwrap();
        assert_eq!(stmts.len(), 6);
        match &stmts[0] {
            Stmt::Ddl(DdlStmt::CreateType { name, is_closed, fields }) => {
                assert_eq!(name, "GleambookUserType");
                assert!(!is_closed);
                assert_eq!(fields.len(), 6);
                assert_eq!(
                    fields[4].ty,
                    TypeExpr::Multiset(Box::new(TypeExpr::Named("int".into())))
                );
            }
            other => panic!("{other:?}"),
        }
        match &stmts[1] {
            Stmt::Ddl(DdlStmt::CreateType { fields, .. }) => {
                assert!(fields[2].optional, "endDate: date?");
            }
            other => panic!("{other:?}"),
        }
        match &stmts[4] {
            Stmt::Ddl(DdlStmt::CreateIndex { kind, .. }) => {
                assert_eq!(*kind, IndexKind::RTree)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn figure3b_external_dataset() {
        let stmts = parse_statements(
            r#"
            CREATE TYPE AccessLogType AS CLOSED {
                ip: string, time: string, user: string, verb: string,
                'path': string, stat: int32, size: int32
            };
            CREATE EXTERNAL DATASET AccessLog(AccessLogType) USING localfs
              (("path"="localhost:///Users/mjc/extdemo/accesses.txt"),
               ("format"="delimited-text"), ("delimiter"="|"));
            "#,
        )
        .unwrap();
        match &stmts[0] {
            Stmt::Ddl(DdlStmt::CreateType { is_closed, fields, .. }) => {
                assert!(*is_closed);
                assert_eq!(fields[4].name, "path");
            }
            other => panic!("{other:?}"),
        }
        match &stmts[1] {
            Stmt::Ddl(DdlStmt::CreateExternalDataset { adapter, properties, .. }) => {
                assert_eq!(adapter, "localfs");
                assert_eq!(properties.len(), 3);
                assert_eq!(properties[2], ("delimiter".into(), "|".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn figure3c_query_parses() {
        let q = parse_query(
            r#"
            WITH endTime AS current_datetime(),
                 startTime AS endTime - duration("P30D")
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
        assert_eq!(q.with.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].alias, "user");
        assert_eq!(q.lets.len(), 1);
        assert!(matches!(q.where_clause, Some(Expr::Quantified { some: true, .. })));
        assert_eq!(q.group_by.as_ref().unwrap().keys.len(), 1);
        match q.select.as_ref().unwrap() {
            SelectClause::Fields(fs) => {
                assert_eq!(fs.len(), 2);
                assert_eq!(fs[0].1.as_deref(), Some("numFriends"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn figure3d_upsert_parses() {
        let stmts = parse_statements(
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
        match &stmts[0] {
            Stmt::Dml(DmlStmt::InsertUpsert { dataset, is_upsert, value }) => {
                assert_eq!(dataset, "GleambookUsers");
                assert!(is_upsert);
                assert!(matches!(value, Expr::ObjectCtor(pairs) if pairs.len() == 8));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn joins_and_unnest() {
        let q = parse_query(
            "SELECT u.name, m.message
             FROM GleambookUsers u
             JOIN GleambookMessages m ON m.authorId = u.id
             UNNEST u.employment e
             LEFT OUTER JOIN Other o ON o.k = u.id",
        )
        .unwrap();
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].joins.len(), 3);
        assert!(matches!(q.from[0].joins[0], JoinStep::Join { kind: JoinKind::Inner, .. }));
        assert!(matches!(q.from[0].joins[1], JoinStep::Unnest { outer: false, .. }));
        assert!(matches!(
            q.from[0].joins[2],
            JoinStep::Join { kind: JoinKind::LeftOuter, .. }
        ));
    }

    #[test]
    fn operator_precedence() {
        let q = parse_query("SELECT VALUE 1 + 2 * 3 < 10 AND true OR false").unwrap();
        let SelectClause::Element(e) = q.select.unwrap() else { panic!() };
        // ((1 + (2*3)) < 10 AND true) OR false
        let Expr::Binary(Func::Or, lhs, _) = e else { panic!("{e:?}") };
        let Expr::Binary(Func::And, cmp, _) = *lhs else { panic!() };
        assert!(matches!(*cmp, Expr::Binary(Func::Lt, _, _)));
    }

    #[test]
    fn between_in_like_is() {
        let q = parse_query(
            "SELECT VALUE x FROM t x WHERE x.a BETWEEN 1 AND 5
             AND x.b IN [1,2] AND x.c LIKE 'a%' AND x.d IS NOT NULL
             AND x.e NOT IN [3]",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        let text = format!("{w:?}");
        assert!(text.contains("Between"));
        assert!(text.contains("In"));
        assert!(text.contains("Like"));
        assert!(text.contains("Unary(Not, Unary(IsNull, "), "IS NOT NULL is NOT over IS NULL: {text}");
        assert!(text.contains("negated: true"));
    }

    #[test]
    fn subquery_and_exists() {
        let q = parse_query(
            "SELECT VALUE u FROM Users u
             WHERE EXISTS (SELECT VALUE m FROM Msgs m WHERE m.author = u.id)",
        )
        .unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Exists(_))));
        let q = parse_query("SELECT VALUE (SELECT VALUE 1)").unwrap();
        assert!(matches!(q.select, Some(SelectClause::Element(Expr::Subquery(_)))));
    }

    #[test]
    fn group_as_clause() {
        let q = parse_query(
            "SELECT city, COLL_COUNT(g) FROM Users u GROUP BY u.city AS city GROUP AS g",
        )
        .unwrap();
        let g = q.group_by.unwrap();
        assert_eq!(g.group_as.as_deref(), Some("g"));
        assert_eq!(g.keys[0].1.as_deref(), Some("city"));
    }

    #[test]
    fn delete_and_load() {
        let stmts = parse_statements(
            r#"DELETE FROM GleambookUsers u WHERE u.id = 667;
               LOAD DATASET GleambookUsers USING localfs (("path"="/tmp/users.adm"),("format"="adm"));"#,
        )
        .unwrap();
        assert!(matches!(&stmts[0], Stmt::Dml(DmlStmt::Delete { var: Some(v), .. }) if v == "u"));
        assert!(matches!(&stmts[1], Stmt::Dml(DmlStmt::Load { .. })));
    }

    #[test]
    fn select_star_and_distinct() {
        let q = parse_query("SELECT DISTINCT * FROM t").unwrap();
        assert!(q.distinct);
        assert!(matches!(q.select, Some(SelectClause::Star)));
    }

    #[test]
    fn error_positions() {
        let err = parse_query("SELECT VALUE FROM").unwrap_err();
        assert!(matches!(err, SqlppError::Parse { .. }), "{err}");
    }
}
