//! LSM inverted keyword index (`CREATE INDEX ... TYPE KEYWORD`, paper
//! Figure 3(a) and Section III item 8).
//!
//! Indexes the tokens of a string field to the record's primary key. It is
//! an [`LsmTree`] over the composite key `(token, pk)` with no value —
//! LSM-ifying the inverted index exactly the way AsterixDB does (secondary
//! indexes reuse the LSM machinery). This module is its key codec
//! ([`postings`]) and its searches; the tree's owner writes and deletes the
//! keys. Primary keys go in and come out as encoded key bytes
//! (`asterix_adm::binary::encode_key`): a posting is the token prepended to
//! them, and nothing decodes them on the way.

use crate::error::Result;
use crate::lsm::LsmTree;
use asterix_adm::binary::{encode_key, key_prefix_end, prepend_key_part};
use asterix_adm::Value;
use std::ops::Bound;

/// Splits text into lowercase alphanumeric word tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The posting keys of `text` under the encoded primary key `pk`: one per
/// distinct token, the token prepended to `pk`.
pub fn postings(text: &str, pk: &[u8]) -> Vec<Vec<u8>> {
    let mut tokens = tokenize(text);
    tokens.sort_unstable();
    tokens.dedup();
    tokens.into_iter().map(|tok| prepend_key_part(&Value::String(tok), pk)).collect()
}

/// Encoded primary keys, in byte order, of the records whose postings in
/// `tree` hold `token` (case-insensitive).
pub fn search_token(tree: &LsmTree, token: &str) -> Result<Vec<Vec<u8>>> {
    // the postings of a token are the keys its one-part key starts, and
    // the primary key is what follows it
    let lo = encode_key(&[Value::String(token.to_lowercase())]);
    let hi = key_prefix_end(lo.clone());
    tree.range_iter(Bound::Included(lo.as_slice()), Bound::Excluded(hi.as_slice()))?
        .map(|entry| Ok(entry?.0.split_off(lo.len())))
        .collect()
}

/// Encoded primary keys, in byte order, of the records whose postings in
/// `tree` hold *all* the query's tokens (conjunctive keyword search). Each
/// token's keys come out in byte order, so they are intersected by a merge.
pub fn search_all(tree: &LsmTree, query: &str) -> Result<Vec<Vec<u8>>> {
    let mut tokens = tokenize(query);
    tokens.sort_unstable();
    tokens.dedup();
    let mut tokens = tokens.iter();
    let Some(first) = tokens.next() else { return Ok(Vec::new()) };
    let mut found = search_token(tree, first)?;
    for tok in tokens {
        if found.is_empty() {
            break;
        }
        let also = search_token(tree, tok)?;
        let mut also = also.iter().peekable();
        found.retain(|pk| {
            while also.next_if(|other| *other < pk).is_some() {}
            also.peek() == Some(&pk)
        });
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BufferCache;
    use crate::io::FileManager;
    use crate::lsm::LsmConfig;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;

    fn setup() -> (LsmTree, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (LsmTree::new(BufferCache::new(fm, 64), LsmConfig::new("kw")), dir)
    }

    fn pk(i: i64) -> Vec<u8> {
        encode_key(&[Value::Int(i)])
    }

    fn insert(tree: &mut LsmTree, text: &str, pk: &[u8]) {
        for key in postings(text, pk) {
            tree.upsert(key, Vec::new()).unwrap();
        }
    }

    #[test]
    fn tokenizer() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("  a--b_c 42 "), vec!["a", "b", "c", "42"]);
        assert_eq!(tokenize("ÜBER straße"), vec!["über", "straße"]);
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn index_and_search() {
        let (mut idx, _d) = setup();
        insert(&mut idx, "the quick brown fox", &pk(1));
        insert(&mut idx, "the lazy dog", &pk(2));
        insert(&mut idx, "quick quick dog", &pk(3));
        let hits = search_token(&idx, "quick").unwrap();
        assert_eq!(hits, vec![pk(1), pk(3)]);
        let hits = search_token(&idx, "THE").unwrap();
        assert_eq!(hits.len(), 2, "case-insensitive");
        assert!(search_token(&idx, "cat").unwrap().is_empty());
    }

    #[test]
    fn conjunctive_search() {
        let (mut idx, _d) = setup();
        insert(&mut idx, "big data management system", &pk(1));
        insert(&mut idx, "big active data", &pk(2));
        insert(&mut idx, "little data", &pk(3));
        let hits = search_all(&idx, "big data").unwrap();
        assert_eq!(hits, vec![pk(1), pk(2)]);
        let hits = search_all(&idx, "big data management").unwrap();
        assert_eq!(hits, vec![pk(1)]);
        assert!(search_all(&idx, "big cats").unwrap().is_empty());
        assert!(search_all(&idx, "...").unwrap().is_empty(), "no token, no record");
    }

    /// The intersection is a merge of the tokens' keys, each in byte order:
    /// its answer is the rare token's keys that the common one holds too, in
    /// key order, whichever token the query names first.
    #[test]
    fn a_common_and_a_rare_token_intersect_in_key_order() {
        let (mut idx, _d) = setup();
        // 3 996 texts hold `common`, 42 hold `rare`, one of them without `common`
        for i in 0..4000 {
            let common = if i % 1000 == 3 { "" } else { " common" };
            let rare = if i % 97 == 3 { " rare" } else { "" };
            insert(&mut idx, &format!("m{i}{common}{rare}"), &pk(i));
        }
        idx.flush().unwrap();
        // then, in memory, record 3 takes `common` and record 3883 loses `rare`
        insert(&mut idx, "common", &pk(3));
        for key in postings("rare", &pk(3883)) {
            idx.delete(key).unwrap();
        }
        assert_eq!(search_token(&idx, "common").unwrap().len(), 3997);
        let want: Vec<Vec<u8>> = (0..42).map(|k| 3 + 97 * k).filter(|&i| i != 3883).map(pk).collect();
        assert_eq!(want.len(), 41);
        assert_eq!(search_all(&idx, "common rare").unwrap(), want);
        assert_eq!(search_all(&idx, "RARE, common").unwrap(), want);
    }

    #[test]
    fn search_spans_flushes() {
        let (mut idx, _d) = setup();
        insert(&mut idx, "alpha beta", &pk(1));
        idx.flush().unwrap();
        insert(&mut idx, "beta gamma", &pk(2));
        let hits = search_token(&idx, "beta").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(idx.component_count() >= 1);
    }

    #[test]
    fn delete_removes_postings() {
        let (mut idx, _d) = setup();
        insert(&mut idx, "hello world", &pk(1));
        insert(&mut idx, "hello there", &pk(2));
        idx.flush().unwrap();
        for key in postings("hello world", &pk(1)) {
            idx.delete(key).unwrap();
        }
        let hits = search_token(&idx, "hello").unwrap();
        assert_eq!(hits, vec![pk(2)]);
        assert!(search_token(&idx, "world").unwrap().is_empty());
    }

    #[test]
    fn duplicate_tokens_in_one_text() {
        assert_eq!(postings("spam Spam spam", &pk(7)).len(), 1, "deduplicated postings");
    }

    #[test]
    fn string_primary_keys() {
        let (mut idx, _d) = setup();
        let pk_a = encode_key(&[Value::from("userA"), Value::Int(1)]);
        insert(&mut idx, "msg one", &pk_a);
        insert(&mut idx, "msg two", &encode_key(&[Value::from("userB"), Value::Int(2)]));
        let hits = search_token(&idx, "msg").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], pk_a);
    }
}
