//! The correctness oracle: an in-memory model of the dataset (key → latest
//! record) that every result is checked against.

use crate::workload::{QueryKind, Rec};
use asterix_adm::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Clone, Debug, Default, PartialEq)]
struct AuthorStat {
    ids: BTreeSet<i64>,
    sum_ids: i64,
}

/// What the dataset must contain, and how many bytes of ADM text the user
/// submitted to get it there.
#[derive(Clone, Debug, Default)]
pub struct Model {
    recs: HashMap<i64, Rec>,
    authors: BTreeMap<i64, AuthorStat>,
    /// UTF-8 bytes of the latest ADM text of each live record.
    pub live_text_bytes: u64,
    /// UTF-8 bytes of all ADM text submitted, overwritten versions included.
    pub submitted_text_bytes: u64,
}

impl Model {
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Applies one committed upsert.
    pub fn upsert(&mut self, rec: &Rec) {
        self.submitted_text_bytes += rec.text.len() as u64;
        self.live_text_bytes += rec.text.len() as u64;
        if let Some(old) = self.recs.insert(rec.id, rec.clone()) {
            self.live_text_bytes -= old.text.len() as u64;
            self.unlink(old.author, old.id);
        }
        let stat = self.authors.entry(rec.author).or_default();
        stat.ids.insert(rec.id);
        stat.sum_ids += rec.id;
    }

    fn unlink(&mut self, author: i64, id: i64) {
        if let Some(stat) = self.authors.get_mut(&author) {
            stat.ids.remove(&id);
            stat.sum_ids -= id;
            if stat.ids.is_empty() {
                self.authors.remove(&author);
            }
        }
    }

    /// `--inject-wrong`: makes the model disagree with the engine by one
    /// record, which every workload's checks must notice.
    pub fn corrupt_one_record(&mut self) {
        let Some(&id) = self.recs.keys().min() else {
            return;
        };
        let mut rec = self.recs[&id].clone();
        rec.message.push_str(" (injected)");
        self.recs.insert(id, rec);
        // and one phantom record, so aggregates and counts are off as well
        let phantom = Rec {
            id: -1,
            author: 1,
            message: "phantom".into(),
            text: String::new(),
        };
        self.upsert(&phantom);
    }

    /// Checks the rows one query returned.
    pub fn check_query(&self, kind: QueryKind, param: i64, span: i64, rows: &[Value]) -> bool {
        match kind {
            QueryKind::PkLookup => {
                let want: Vec<&str> = self
                    .recs
                    .get(&param)
                    .map(|r| r.message.as_str())
                    .into_iter()
                    .collect();
                strings(rows).is_some_and(|got| got == want)
            }
            QueryKind::AuthorLookup => {
                let mut want: Vec<&str> = self
                    .authors
                    .get(&param)
                    .map(|stat| {
                        stat.ids
                            .iter()
                            .map(|id| self.recs[id].message.as_str())
                            .collect()
                    })
                    .unwrap_or_default();
                want.sort_unstable();
                strings(rows).is_some_and(|mut got| {
                    got.sort_unstable();
                    got == want
                })
            }
            QueryKind::GroupCount | QueryKind::GroupCountSum => {
                let with_sum = kind == QueryKind::GroupCountSum;
                let mut seen = BTreeSet::new();
                rows.len() == self.authors.len()
                    && rows.iter().all(|row| {
                        let Some(author) = row.field("a").as_i64() else {
                            return false;
                        };
                        let Some(stat) = self.authors.get(&author) else {
                            return false;
                        };
                        seen.insert(author)
                            && row.field("c").as_i64() == Some(stat.ids.len() as i64)
                            && (!with_sum || row.field("s").as_i64() == Some(stat.sum_ids))
                    })
            }
            QueryKind::FilterTopK => {
                let mut ids: Vec<i64> = self
                    .authors
                    .range(param..param + span)
                    .flat_map(|(_, stat)| stat.ids.iter().copied())
                    .collect();
                ids.sort_unstable_by(|a, b| b.cmp(a));
                ids.truncate(10);
                rows.len() == ids.len()
                    && rows.iter().zip(&ids).all(|(row, id)| {
                        row.field("id").as_i64() == Some(*id)
                            && row.field("msg").as_str() == Some(self.recs[id].message.as_str())
                    })
            }
        }
    }

    /// Checks a full dump (`workload::dump_query`): every committed record
    /// present exactly once with its latest contents, and nothing else.
    pub fn check_dump(&self, rows: &[Value]) -> bool {
        let mut seen = BTreeSet::new();
        rows.len() == self.recs.len()
            && rows.iter().all(|row| {
                let Some(id) = row.field("id").as_i64() else {
                    return false;
                };
                let Some(rec) = self.recs.get(&id) else {
                    return false;
                };
                seen.insert(id)
                    && row.field("a").as_i64() == Some(rec.author)
                    && row.field("msg").as_str() == Some(rec.message.as_str())
            })
    }
}

fn strings(rows: &[Value]) -> Option<Vec<&str>> {
    rows.iter().map(Value::as_str).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: i64, author: i64, message: &str) -> Rec {
        Rec {
            id,
            author,
            message: message.into(),
            text: format!("{{\"messageId\": {id}}}"),
        }
    }

    fn row(pairs: &[(&str, Value)]) -> Value {
        Value::object(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn overwrite_moves_the_record_between_authors_and_keeps_byte_counts() {
        let mut m = Model::default();
        m.upsert(&rec(1, 10, "a"));
        m.upsert(&rec(2, 10, "b"));
        let one = rec(1, 10, "a").text.len() as u64;
        assert_eq!(
            (m.live_text_bytes, m.submitted_text_bytes),
            (2 * one, 2 * one)
        );
        m.upsert(&rec(1, 11, "c"));
        assert_eq!(m.len(), 2);
        assert_eq!(
            (m.live_text_bytes, m.submitted_text_bytes),
            (2 * one, 3 * one)
        );
        let counts = [
            row(&[
                ("a", Value::Int(10)),
                ("c", Value::Int(1)),
                ("s", Value::Int(2)),
            ]),
            row(&[
                ("a", Value::Int(11)),
                ("c", Value::Int(1)),
                ("s", Value::Int(1)),
            ]),
        ];
        assert!(m.check_query(QueryKind::GroupCountSum, 0, 1, &counts));
        assert!(m.check_query(QueryKind::AuthorLookup, 11, 1, &[Value::from("c")]));
        assert!(m.check_query(QueryKind::PkLookup, 3, 1, &[]));
        assert!(!m.check_query(QueryKind::PkLookup, 1, 1, &[Value::from("a")]));
    }

    #[test]
    fn top_k_is_ordered_by_id_descending_within_the_author_range() {
        let mut m = Model::default();
        for id in 1..=30 {
            m.upsert(&rec(id, id % 3, "m"));
        }
        // authors 1 and 2 → ids not divisible by 3, newest first
        let want: Vec<i64> = (1..=30).rev().filter(|id| id % 3 != 0).take(10).collect();
        let rows: Vec<Value> = want
            .iter()
            .map(|id| row(&[("id", Value::Int(*id)), ("msg", Value::from("m"))]))
            .collect();
        assert!(m.check_query(QueryKind::FilterTopK, 1, 2, &rows));
        let mut swapped = rows.clone();
        swapped.swap(0, 1);
        assert!(!m.check_query(QueryKind::FilterTopK, 1, 2, &swapped));
    }

    #[test]
    fn dump_check_wants_every_record_exactly_once() {
        let mut m = Model::default();
        m.upsert(&rec(1, 10, "a"));
        m.upsert(&rec(2, 11, "b"));
        let r = |id, a, msg: &str| {
            row(&[
                ("id", Value::Int(id)),
                ("a", Value::Int(a)),
                ("msg", Value::from(msg)),
            ])
        };
        assert!(m.check_dump(&[r(2, 11, "b"), r(1, 10, "a")]));
        assert!(!m.check_dump(&[r(1, 10, "a")]), "a lost record");
        assert!(
            !m.check_dump(&[r(1, 10, "a"), r(1, 10, "a")]),
            "a duplicate"
        );
        assert!(
            !m.check_dump(&[r(1, 10, "a"), r(2, 11, "stale")]),
            "a stale version"
        );
    }

    #[test]
    fn injected_corruption_fails_dump_aggregate_and_lookup() {
        let mut m = Model::default();
        m.upsert(&rec(1, 10, "a"));
        let dump = [row(&[
            ("id", Value::Int(1)),
            ("a", Value::Int(10)),
            ("msg", Value::from("a")),
        ])];
        let agg = [row(&[("a", Value::Int(10)), ("c", Value::Int(1))])];
        assert!(m.check_dump(&dump) && m.check_query(QueryKind::GroupCount, 0, 1, &agg));
        m.corrupt_one_record();
        assert!(!m.check_dump(&dump));
        assert!(!m.check_query(QueryKind::GroupCount, 0, 1, &agg));
        assert!(!m.check_query(QueryKind::PkLookup, 1, 1, &[Value::from("a")]));
    }
}
