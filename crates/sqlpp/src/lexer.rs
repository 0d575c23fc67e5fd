//! Tokenizer shared by the SQL++ and AQL parsers.
//!
//! Keywords are case-insensitive; identifiers keep their case. Backtick
//! quoting (`` `path` ``) produces identifiers that would otherwise collide
//! with keywords (Figure 3(b) quotes `'path'`; we accept both quote styles
//! for delimited identifiers). AQL variables (`$x`) lex as `Variable`.

use crate::error::{Result, SqlppError};

/// One lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub column: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Ident(String),
    /// `$name` (AQL variables).
    Variable(String),
    Keyword(Kw),
    StringLit(String),
    IntLit(i64),
    DoubleLit(f64),
    // punctuation
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    LBraceBrace,
    RBraceBrace,
    Comma,
    Semi,
    Colon,
    Dot,
    Question,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    ConcatOp,
    /// `:=` (AQL binding).
    Assign,
    /// `=>` reserved.
    Arrow,
    Eof,
}

/// Keywords (case-insensitive in source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Kw {
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Limit,
    Offset,
    Let,
    With,
    As,
    Value,
    Element,
    Distinct,
    And,
    Or,
    Not,
    In,
    Exists,
    Some,
    Every,
    Satisfies,
    Case,
    When,
    Then,
    Else,
    End,
    Like,
    Between,
    Is,
    Null,
    Missing,
    Unknown,
    True,
    False,
    Join,
    Left,
    Inner,
    Outer,
    On,
    Unnest,
    Union,
    All,
    Asc,
    Desc,
    Create,
    Drop,
    Type,
    Dataset,
    Index,
    External,
    Closed,
    Primary,
    Key,
    Btree,
    Rtree,
    Keyword,
    Using,
    Insert,
    Upsert,
    Delete,
    Into,
    Load,
    // AQL
    For,
    Return,
    Keeping,
    // misc
    If,
}

fn keyword(s: &str) -> Option<Kw> {
    Some(match s.to_ascii_lowercase().as_str() {
        "select" => Kw::Select,
        "from" => Kw::From,
        "where" => Kw::Where,
        "group" => Kw::Group,
        "by" => Kw::By,
        "having" => Kw::Having,
        "order" => Kw::Order,
        "limit" => Kw::Limit,
        "offset" => Kw::Offset,
        "let" => Kw::Let,
        "with" => Kw::With,
        "as" => Kw::As,
        "value" => Kw::Value,
        "element" => Kw::Element,
        "distinct" => Kw::Distinct,
        "and" => Kw::And,
        "or" => Kw::Or,
        "not" => Kw::Not,
        "in" => Kw::In,
        "exists" => Kw::Exists,
        "some" => Kw::Some,
        "every" => Kw::Every,
        "satisfies" => Kw::Satisfies,
        "case" => Kw::Case,
        "when" => Kw::When,
        "then" => Kw::Then,
        "else" => Kw::Else,
        "end" => Kw::End,
        "like" => Kw::Like,
        "between" => Kw::Between,
        "is" => Kw::Is,
        "null" => Kw::Null,
        "missing" => Kw::Missing,
        "unknown" => Kw::Unknown,
        "true" => Kw::True,
        "false" => Kw::False,
        "join" => Kw::Join,
        "left" => Kw::Left,
        "inner" => Kw::Inner,
        "outer" => Kw::Outer,
        "on" => Kw::On,
        "unnest" => Kw::Unnest,
        "union" => Kw::Union,
        "all" => Kw::All,
        "asc" => Kw::Asc,
        "desc" => Kw::Desc,
        "create" => Kw::Create,
        "drop" => Kw::Drop,
        "type" => Kw::Type,
        "dataset" => Kw::Dataset,
        "index" => Kw::Index,
        "external" => Kw::External,
        "closed" => Kw::Closed,
        "primary" => Kw::Primary,
        "key" => Kw::Key,
        "btree" => Kw::Btree,
        "rtree" => Kw::Rtree,
        "keyword" => Kw::Keyword,
        "using" => Kw::Using,
        "insert" => Kw::Insert,
        "upsert" => Kw::Upsert,
        "delete" => Kw::Delete,
        "into" => Kw::Into,
        "load" => Kw::Load,
        "for" => Kw::For,
        "return" => Kw::Return,
        "keeping" => Kw::Keeping,
        "if" => Kw::If,
        _ => return None,
    })
}

/// Tokenizes `input` (appends an EOF token).
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    macro_rules! err {
        ($msg:expr) => {
            return Err(SqlppError::Lex { line, column: col, message: $msg.into() })
        };
    }
    while i < bytes.len() {
        let c = bytes[i];
        let (tline, tcol) = (line, col);
        let push = |kind: TokenKind, out: &mut Vec<Token>| {
            out.push(Token { kind, line: tline, column: tcol })
        };
        match c {
            b'\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => {
                col += 1;
                i += 1;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        err!("unterminated block comment");
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            b'"' | b'\'' | b'`' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                col += 1;
                loop {
                    if i >= bytes.len() {
                        err!("unterminated string");
                    }
                    let b = bytes[i];
                    if b == quote {
                        i += 1;
                        col += 1;
                        break;
                    }
                    if b == b'\\' && i + 1 < bytes.len() {
                        let esc = bytes[i + 1];
                        s.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            b'\\' => '\\',
                            b'"' => '"',
                            b'\'' => '\'',
                            b'`' => '`',
                            other => other as char,
                        });
                        i += 2;
                        col += 2;
                        continue;
                    }
                    if b == b'\n' {
                        line += 1;
                        col = 1;
                        s.push('\n');
                        i += 1;
                        continue;
                    }
                    // UTF-8 passthrough
                    let ch_len = utf8_len(b);
                    s.push_str(std::str::from_utf8(&bytes[i..i + ch_len]).map_err(|_| {
                        SqlppError::Lex { line, column: col, message: "invalid UTF-8".into() }
                    })?);
                    i += ch_len;
                    col += 1;
                }
                if quote == b'`' {
                    push(TokenKind::Ident(s), &mut out);
                } else {
                    push(TokenKind::StringLit(s), &mut out);
                }
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() => {
                            is_float = true;
                            i += 1;
                        }
                        b'e' | b'E'
                            if i + 1 < bytes.len()
                                && (bytes[i + 1].is_ascii_digit()
                                    || bytes[i + 1] == b'+'
                                    || bytes[i + 1] == b'-') =>
                        {
                            is_float = true;
                            i += 2;
                        }
                        _ => break,
                    }
                }
                let text = &input[start..i];
                col += (i - start) as u32;
                if is_float {
                    match text.parse::<f64>() {
                        Ok(v) => push(TokenKind::DoubleLit(v), &mut out),
                        Err(_) => err!(format!("bad number {text:?}")),
                    }
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => push(TokenKind::IntLit(v), &mut out),
                        Err(_) => match text.parse::<f64>() {
                            Ok(v) => push(TokenKind::DoubleLit(v), &mut out),
                            Err(_) => err!(format!("bad number {text:?}")),
                        },
                    }
                }
            }
            b'$' => {
                let start = i + 1;
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                if i == start {
                    err!("lone '$'");
                }
                col += (i - start + 1) as u32;
                push(TokenKind::Variable(input[start..i].to_owned()), &mut out);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &input[start..i];
                col += (i - start) as u32;
                match keyword(word) {
                    Some(k) => push(TokenKind::Keyword(k), &mut out),
                    None => push(TokenKind::Ident(word.to_owned()), &mut out),
                }
            }
            _ => {
                // bytes, not `str`: the next two may cut a character
                let (kind, len) = match bytes.get(i..i + 2).unwrap_or_default() {
                    b"{{" => (TokenKind::LBraceBrace, 2),
                    b"}}" => (TokenKind::RBraceBrace, 2),
                    b"!=" => (TokenKind::NotEq, 2),
                    b"<>" => (TokenKind::NotEq, 2),
                    b"<=" => (TokenKind::Le, 2),
                    b">=" => (TokenKind::Ge, 2),
                    b"||" => (TokenKind::ConcatOp, 2),
                    b":=" => (TokenKind::Assign, 2),
                    b"=>" => (TokenKind::Arrow, 2),
                    _ => match c {
                        b'(' => (TokenKind::LParen, 1),
                        b')' => (TokenKind::RParen, 1),
                        b'[' => (TokenKind::LBracket, 1),
                        b']' => (TokenKind::RBracket, 1),
                        b'{' => (TokenKind::LBrace, 1),
                        b'}' => (TokenKind::RBrace, 1),
                        b',' => (TokenKind::Comma, 1),
                        b';' => (TokenKind::Semi, 1),
                        b':' => (TokenKind::Colon, 1),
                        b'.' => (TokenKind::Dot, 1),
                        b'?' => (TokenKind::Question, 1),
                        b'*' => (TokenKind::Star, 1),
                        b'+' => (TokenKind::Plus, 1),
                        b'-' => (TokenKind::Minus, 1),
                        b'/' => (TokenKind::Slash, 1),
                        b'%' => (TokenKind::Percent, 1),
                        b'=' => (TokenKind::Eq, 1),
                        b'<' => (TokenKind::Lt, 1),
                        b'>' => (TokenKind::Gt, 1),
                        other => err!(format!("unexpected character {:?}", other as char)),
                    },
                };
                push(kind, &mut out);
                i += len;
                col += len as u32;
            }
        }
    }
    out.push(Token { kind: TokenKind::Eof, line, column: col });
    Ok(out)
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("SELECT select SeLeCt"),
            vec![
                TokenKind::Keyword(Kw::Select),
                TokenKind::Keyword(Kw::Select),
                TokenKind::Keyword(Kw::Select),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn identifiers_and_variables() {
        assert_eq!(
            kinds("GleambookUsers $user _x"),
            vec![
                TokenKind::Ident("GleambookUsers".into()),
                TokenKind::Variable("user".into()),
                TokenKind::Ident("_x".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_and_quoted_identifiers() {
        assert_eq!(
            kinds(r#"'path' "text" `order`"#),
            vec![
                TokenKind::StringLit("path".into()),
                TokenKind::StringLit("text".into()),
                TokenKind::Ident("order".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("42 3.5 1e3"),
            vec![
                TokenKind::IntLit(42),
                TokenKind::DoubleLit(3.5),
                TokenKind::DoubleLit(1000.0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            kinds("<= >= != <> || := {{ }}"),
            vec![
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::ConcatOp,
                TokenKind::Assign,
                TokenKind::LBraceBrace,
                TokenKind::RBraceBrace,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a -- comment\n b /* block\n comment */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn positions_tracked() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].column), (1, 1));
        assert_eq!((toks[1].line, toks[1].column), (2, 3));
    }

    #[test]
    fn lex_errors() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("@").is_err());
        assert!(tokenize("$ ").is_err());
        // a character past ASCII where a token starts is an error, not a
        // panic, wherever the next two bytes end
        for input in ["é", "\\é", "x中", "1 + \\中", "(中"] {
            assert!(tokenize(input).is_err(), "{input:?}");
        }
    }
}
