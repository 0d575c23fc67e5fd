//! The data-source abstraction Algebricks compiles against.
//!
//! Algebricks is *data-model-agnostic* (paper Figure 5): it never touches
//! storage directly. A [`DataSource`] supplies partitioned scans, advertises
//! its primary key and secondary indexes, and can open index-based access
//! paths; the
//! `asterix-core` crate implements it over LSM dataset partitions, external
//! files, and synthetic generators.

use crate::error::Result;
use asterix_adm::{Rectangle, Value};
use asterix_hyracks::job::SourceFactory;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Name access paths on the primary index carry (plans, operator labels).
pub const PRIMARY_INDEX: &str = "primary";

/// Kinds of secondary index (paper Section III items 5 and 8): what
/// `CREATE INDEX` declares, the catalog keeps and the optimizer chooses
/// among. The primary index is the dataset itself, the B+ tree keyed by its
/// primary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// B+ tree on a (possibly composite) field path.
    BTree,
    /// R-tree on a point/rectangle field.
    RTree,
    /// Inverted keyword index on a string field.
    Keyword,
}

/// One secondary index: its definition in the catalog and what a data
/// source advertises to the optimizer.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    pub name: String,
    /// Indexed field path on the dataset's records (e.g. `["userSince"]`).
    pub field: Vec<String>,
    pub kind: IndexKind,
}

/// Bounds on the leading part of an index's keys (`None`: an open end).
#[derive(Debug, Clone, Default)]
pub struct KeyRange {
    pub lo: Option<Value>,
    pub lo_inclusive: bool,
    pub hi: Option<Value>,
    pub hi_inclusive: bool,
}

impl KeyRange {
    /// True when the bounds contradict each other, so no key can match.
    pub fn is_empty(&self) -> bool {
        let KeyRange { lo: Some(lo), lo_inclusive, hi: Some(hi), hi_inclusive } = self else {
            return false;
        };
        match asterix_adm::compare::total_cmp(lo, hi) {
            Ordering::Less => false,
            Ordering::Equal => !(*lo_inclusive && *hi_inclusive),
            Ordering::Greater => true,
        }
    }
}

/// An index probe compiled from a predicate by the optimizer.
#[derive(Debug, Clone)]
pub enum IndexRange {
    /// Equality on every field of the primary key, in key order: one record
    /// at most, on one partition.
    Point(Vec<Value>),
    /// Range on the (leading) key field of a B+ tree index, or of the
    /// primary key.
    Range(KeyRange),
    /// Rectangle intersection on an R-tree index.
    Spatial(Rectangle),
    /// Conjunctive keyword containment on an inverted index.
    Keyword(String),
}

impl IndexRange {
    /// True when the bounds contradict each other, so no key can match.
    pub fn is_empty(&self) -> bool {
        matches!(self, IndexRange::Range(range) if range.is_empty())
    }
}

/// Prints the probe the way plans show it: `eq 42`, `ge 3, lt 10`.
impl fmt::Display for IndexRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexRange::Point(key) => {
                let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
                write!(f, "eq {}", parts.join(", "))
            }
            _ if self.is_empty() => f.write_str("empty"),
            IndexRange::Range(KeyRange { lo, lo_inclusive, hi, hi_inclusive }) => {
                let lo = lo.as_ref().map(|v| format!("{} {v}", if *lo_inclusive { "ge" } else { "gt" }));
                let hi = hi.as_ref().map(|v| format!("{} {v}", if *hi_inclusive { "le" } else { "lt" }));
                let bounds: Vec<String> = lo.into_iter().chain(hi).collect();
                f.write_str(&bounds.join(", "))
            }
            IndexRange::Spatial(rect) => write!(f, "intersects {}", Value::Rectangle(*rect)),
            IndexRange::Keyword(word) => write!(f, "contains {}", Value::from(word.as_str())),
        }
    }
}

/// An index access path chosen by the optimizer for a data-source scan.
#[derive(Debug, Clone)]
pub struct AccessPath {
    /// The secondary index's name; [`PRIMARY_INDEX`] for the primary.
    pub index: String,
    /// The secondary index's kind; `None` for the primary.
    pub kind: Option<IndexKind>,
    pub range: IndexRange,
    /// A secondary-index probe sorts the primary keys it finds before it
    /// fetches their records (§V-B; the optimizer's sorted-index-fetch rule
    /// sets it).
    pub sorted: bool,
}

/// A named, partitioned source of records.
pub trait DataSource: Send + Sync {
    /// Qualified name (diagnostics + plan printing).
    fn name(&self) -> &str;

    /// Number of storage partitions (the scan's natural parallelism).
    fn partitions(&self) -> usize;

    /// Full-scan factory. The plan reads the records only through the
    /// top-level fields named in `fields`, and each produced tuple holds
    /// those, a column each in that order (`MISSING` where a record has
    /// none) — or, when `fields` is empty, the one column of the records
    /// whole ([`record_columns`]).
    fn scan(&self, fields: &[String]) -> Result<Arc<dyn SourceFactory>>;

    /// Field paths of the primary key the records are stored (and
    /// hash-partitioned) by, in key order; empty when the source has none.
    fn primary_key(&self) -> Vec<Vec<String>> {
        Vec::new()
    }

    /// Secondary indexes available for access-path selection.
    fn indexes(&self) -> Vec<IndexInfo> {
        Vec::new()
    }

    /// Opens an index access path: yields, in the columns of
    /// [`DataSource::scan`], the records
    /// matching the probe (a superset is fine: the optimizer keeps the
    /// predicate as a residual select). For a secondary index,
    /// implementations apply the secondary-key search and fetch the records
    /// of the primary keys it yields — in PK order when `path.sorted` (the
    /// §V-B "usual trick", experiment E7); a primary path reads the records
    /// where they are.
    /// `fields` as for [`DataSource::scan`].
    fn index_scan(&self, _path: &AccessPath, _fields: &[String]) -> Result<Arc<dyn SourceFactory>> {
        Err(crate::error::AlgebricksError::Plan(format!(
            "data source {} has no index access paths",
            self.name()
        )))
    }
}

/// The tuple a source yields for `record` when asked for `fields`: a column
/// per field, or the record whole when there are none.
pub fn record_columns(record: Value, fields: &[String]) -> asterix_hyracks::Tuple {
    match fields {
        [] => vec![record],
        fields => fields.iter().map(|f| record.field(f).clone()).collect(),
    }
}

/// A trivial in-memory data source (tests, VALUES clauses, generators).
pub struct VecSource {
    name: String,
    partitions: Vec<Vec<Value>>,
}

impl VecSource {
    /// Builds a source over pre-partitioned records.
    pub fn new(name: impl Into<String>, partitions: Vec<Vec<Value>>) -> Arc<Self> {
        Arc::new(VecSource { name: name.into(), partitions })
    }

    /// Builds a single-partition source.
    pub fn single(name: impl Into<String>, records: Vec<Value>) -> Arc<Self> {
        Self::new(name, vec![records])
    }
}

impl DataSource for VecSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn partitions(&self) -> usize {
        self.partitions.len().max(1)
    }

    fn scan(&self, fields: &[String]) -> Result<Arc<dyn SourceFactory>> {
        let (parts, fields) = (self.partitions.clone(), fields.to_vec());
        Ok(Arc::new(asterix_hyracks::job::FnSource(move |p: usize| {
            let (records, fields) = (parts.get(p).cloned().unwrap_or_default(), fields.clone());
            Ok(Box::new(records.into_iter().map(move |r| Ok(record_columns(r, &fields))))
                as Box<
                    dyn Iterator<Item = asterix_hyracks::Result<asterix_hyracks::Tuple>> + Send,
                >)
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_scans_partitions() {
        let src = VecSource::new(
            "t",
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]],
        );
        assert_eq!(src.partitions(), 2);
        let factory = src.scan(&[]).unwrap();
        let tuples = |p: usize| -> Vec<_> {
            let produced = factory.open(p).unwrap().map(|r| r.unwrap());
            produced.map(|t| match t {
                asterix_hyracks::job::Produced::Tuple(t) => t,
                other => panic!("a source of tuples handed out {other:?}"),
            }).collect()
        };
        assert_eq!(tuples(0), vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(tuples(1).len(), 1);
    }

    #[test]
    fn default_index_scan_errors() {
        let src = VecSource::single("t", vec![]);
        assert!(src
            .index_scan(
                &AccessPath {
                    index: "idx".into(),
                    kind: Some(IndexKind::BTree),
                    range: IndexRange::Range(KeyRange::default()),
                    sorted: true,
                },
                &[],
            )
            .is_err());
    }
}
