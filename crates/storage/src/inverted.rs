//! LSM inverted keyword index (`CREATE INDEX ... TYPE KEYWORD`, paper
//! Figure 3(a) and Section III item 8).
//!
//! Indexes the tokens of a string (or the elements of a string collection)
//! to the record's primary key. Physically it is an [`LsmTree`] over the
//! composite key `(token, pk)` — LSM-ifying the inverted index exactly the
//! way AsterixDB does (secondary indexes reuse the LSM machinery). Primary
//! keys go in and come out as encoded key bytes
//! (`asterix_adm::binary::encode_key`): a posting is the token prepended to
//! them, and nothing decodes them on the way.

use crate::cache::BufferCache;
use crate::error::Result;
use crate::lsm::{LsmConfig, LsmTree};
use asterix_adm::binary::{encode_key, key_prefix_end, prepend_key_part};
use asterix_adm::Value;
use std::ops::Bound;
use std::sync::Arc;

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

/// An LSM-based inverted keyword index mapping tokens to primary keys.
pub struct InvertedIndex {
    tree: LsmTree,
}

impl InvertedIndex {
    /// An inverted index kept in `tree`, which the caller created or
    /// reopened: its lifecycle is the tree's own.
    pub fn over(tree: LsmTree) -> Self {
        InvertedIndex { tree }
    }

    /// Creates an inverted index with its own, default-configured LSM tree.
    pub fn new(cache: Arc<BufferCache>, name: impl Into<String>) -> Self {
        InvertedIndex::over(LsmTree::new(cache, LsmConfig::new(name)))
    }

    /// The distinct tokens of `text`, each as the posting key it has with
    /// the encoded primary key `pk`.
    fn postings(text: &str, pk: &[u8]) -> Vec<Vec<u8>> {
        let mut tokens = tokenize(text);
        tokens.sort_unstable();
        tokens.dedup();
        tokens.into_iter().map(|tok| prepend_key_part(&Value::String(tok), pk)).collect()
    }

    /// Indexes `text` under the encoded primary key `pk`.
    pub fn insert_text(&mut self, text: &str, pk: &[u8]) -> Result<()> {
        for key in Self::postings(text, pk) {
            self.tree.upsert(key, Vec::new())?;
        }
        Ok(())
    }

    /// Removes the postings of `text` for `pk` (on delete/update).
    pub fn delete_text(&mut self, text: &str, pk: &[u8]) -> Result<()> {
        for key in Self::postings(text, pk) {
            self.tree.delete(key)?;
        }
        Ok(())
    }

    /// Encoded primary keys of records containing `token` (case-insensitive).
    pub fn search_token(&self, token: &str) -> Result<Vec<Vec<u8>>> {
        // the postings of a token are the keys its one-part key starts, and
        // the primary key is what follows it
        let lo = encode_key(&[Value::String(token.to_lowercase())]);
        let hi = key_prefix_end(lo.clone());
        self.tree
            .range_iter(Bound::Included(lo.as_slice()), Bound::Excluded(hi.as_slice()))?
            .map(|entry| Ok(entry?.0.split_off(lo.len())))
            .collect()
    }

    /// Encoded primary keys of records containing *all* the query's tokens
    /// (conjunctive keyword search).
    pub fn search_all(&self, query: &str) -> Result<Vec<Vec<u8>>> {
        let mut tokens = tokenize(query);
        tokens.sort_unstable();
        tokens.dedup();
        let mut result: Option<Vec<Vec<u8>>> = None;
        for tok in tokens {
            let pks = self.search_token(&tok)?;
            result = Some(match result {
                None => pks,
                Some(prev) => prev
                    .into_iter()
                    .filter(|pk| pks.contains(pk))
                    .collect(),
            });
            if matches!(&result, Some(r) if r.is_empty()) {
                break;
            }
        }
        Ok(result.unwrap_or_default())
    }

    /// The underlying LSM tree: its lifecycle (flushing, logging stamps,
    /// statistics, merge execution) is the tree's own.
    pub fn lsm(&self) -> &LsmTree {
        &self.tree
    }

    /// See [`InvertedIndex::lsm`].
    pub fn lsm_mut(&mut self) -> &mut LsmTree {
        &mut self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FileManager;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;

    fn setup() -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (BufferCache::new(fm, 64), dir)
    }

    fn pk(i: i64) -> Vec<u8> {
        encode_key(&[Value::Int(i)])
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
        let (cache, _d) = setup();
        let mut idx = InvertedIndex::new(cache, "kw");
        idx.insert_text("the quick brown fox", &pk(1)).unwrap();
        idx.insert_text("the lazy dog", &pk(2)).unwrap();
        idx.insert_text("quick quick dog", &pk(3)).unwrap();
        let hits = idx.search_token("quick").unwrap();
        assert_eq!(hits, vec![pk(1), pk(3)]);
        let hits = idx.search_token("THE").unwrap();
        assert_eq!(hits.len(), 2, "case-insensitive");
        assert!(idx.search_token("cat").unwrap().is_empty());
    }

    #[test]
    fn conjunctive_search() {
        let (cache, _d) = setup();
        let mut idx = InvertedIndex::new(cache, "kw");
        idx.insert_text("big data management system", &pk(1)).unwrap();
        idx.insert_text("big active data", &pk(2)).unwrap();
        idx.insert_text("little data", &pk(3)).unwrap();
        let hits = idx.search_all("big data").unwrap();
        assert_eq!(hits, vec![pk(1), pk(2)]);
        let hits = idx.search_all("big data management").unwrap();
        assert_eq!(hits, vec![pk(1)]);
        assert!(idx.search_all("big cats").unwrap().is_empty());
    }

    #[test]
    fn search_spans_flushes() {
        let (cache, _d) = setup();
        let mut idx = InvertedIndex::new(cache, "kw");
        idx.insert_text("alpha beta", &pk(1)).unwrap();
        idx.lsm_mut().flush().unwrap();
        idx.insert_text("beta gamma", &pk(2)).unwrap();
        let hits = idx.search_token("beta").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(idx.lsm().component_count() >= 1);
    }

    #[test]
    fn delete_removes_postings() {
        let (cache, _d) = setup();
        let mut idx = InvertedIndex::new(cache, "kw");
        idx.insert_text("hello world", &pk(1)).unwrap();
        idx.insert_text("hello there", &pk(2)).unwrap();
        idx.lsm_mut().flush().unwrap();
        idx.delete_text("hello world", &pk(1)).unwrap();
        let hits = idx.search_token("hello").unwrap();
        assert_eq!(hits, vec![pk(2)]);
        assert!(idx.search_token("world").unwrap().is_empty());
    }

    #[test]
    fn duplicate_tokens_in_one_text() {
        let (cache, _d) = setup();
        let mut idx = InvertedIndex::new(cache, "kw");
        idx.insert_text("spam spam spam", &pk(7)).unwrap();
        let hits = idx.search_token("spam").unwrap();
        assert_eq!(hits.len(), 1, "deduplicated postings");
    }

    #[test]
    fn string_primary_keys() {
        let (cache, _d) = setup();
        let mut idx = InvertedIndex::new(cache, "kw");
        let pk_a = encode_key(&[Value::from("userA"), Value::Int(1)]);
        idx.insert_text("msg one", &pk_a).unwrap();
        idx.insert_text("msg two", &encode_key(&[Value::from("userB"), Value::Int(2)])).unwrap();
        let hits = idx.search_token("msg").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], pk_a);
    }
}
