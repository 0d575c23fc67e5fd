//! The four workloads: their sizes, and the seeded op stream of each.
//!
//! Everything here is harness-side. The engine only ever sees the generated
//! ADM record texts and SQL++ statements; the seed never reaches it.

use asterix_adm::print::to_adm_string;
use asterix_core::datagen::DataGen;

pub const DATASET: &str = "GleambookMessages";

pub const WORKLOADS: [&str; 4] = ["scan_agg", "pk_lookup", "ingest", "htap_mix"];

/// One generated Gleambook message, as the harness remembers it and as the
/// engine receives it (`text`, ADM syntax).
#[derive(Clone, Debug, PartialEq)]
pub struct Rec {
    pub id: i64,
    pub author: i64,
    pub message: String,
    pub text: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `GROUP BY authorId` with `COUNT(*)`.
    GroupCount,
    /// `GROUP BY authorId` with `COUNT(*)` and `SUM(messageId)`.
    GroupCountSum,
    /// Range filter on `authorId`, `ORDER BY messageId DESC LIMIT 10`.
    FilterTopK,
    /// `WHERE messageId = k` (plans as a full scan today).
    PkLookup,
    /// `WHERE authorId = k` (secondary-index equality).
    AuthorLookup,
}

impl QueryKind {
    /// Aggregates and top-k read the whole dataset; lookups return a few rows.
    pub fn is_lookup(self) -> bool {
        matches!(self, QueryKind::PkLookup | QueryKind::AuthorLookup)
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Query {
        kind: QueryKind,
        param: i64,
        text: String,
    },
    /// One transaction: upsert every record, then commit.
    Txn { recs: Vec<Rec> },
}

/// Sizes of one workload. `BENCHMARK.json` and the README quote these.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Messages loaded during set-up.
    pub preload: i64,
    /// `authorId` is uniform over `1..=n_users`.
    pub n_users: i64,
    /// Create the secondary B+-tree index on `authorId`.
    pub author_index: bool,
    pub cache_pages_per_node: usize,
    /// Records per upsert transaction.
    pub txn_size: usize,
    /// Upsert keys of `ingest` are uniform over `1..=key_space`.
    pub key_space: i64,
    /// Units per round (see [`OpGen::next_round`] for what a unit is).
    pub units_per_round: usize,
    /// Timed rounds of a `RUN_SECONDS` run: a fixed count, so every commit
    /// is measured on the same ops in the same state. Sized to take about
    /// `RUN_SECONDS` at the commit that defined the benchmark.
    pub rounds: usize,
    /// Crash → open cycles after the timed phase (`recover_s` is their
    /// median): fewer where a cycle replays a long log.
    pub recover_cycles: usize,
}

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

impl Spec {
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let base = Spec {
            name: "",
            preload: 0,
            n_users: 2_000,
            author_index: false,
            cache_pages_per_node: 1024,
            txn_size: 50,
            key_space: 0,
            units_per_round: 0,
            rounds: 0,
            recover_cycles: 7,
        };
        let mut spec = match name {
            // 40 k messages ≈ 6 MiB of primary index against 2 × 128 pages =
            // 2 MiB of buffer cache: every scan misses.
            "scan_agg" => Spec {
                name: "scan_agg",
                preload: 40_000,
                n_users: 4_000,
                cache_pages_per_node: 128,
                units_per_round: 2,
                rounds: 40,
                ..base
            },
            // 20 k messages ≈ 3 MiB against the default 2 × 1024 pages =
            // 16 MiB: cache-resident.
            "pk_lookup" => Spec {
                name: "pk_lookup",
                preload: 20_000,
                units_per_round: 20,
                rounds: 44,
                ..base
            },
            "ingest" => Spec {
                name: "ingest",
                author_index: true,
                n_users: 10_000,
                key_space: 100_000,
                // large commits, so that the two fsyncs of one stay a small
                // share of an op when a neighbour's burst slows them tenfold
                txn_size: 2_500,
                units_per_round: 8,
                rounds: 16,
                recover_cycles: 3,
                ..base
            },
            "htap_mix" => Spec {
                name: "htap_mix",
                preload: 20_000,
                author_index: true,
                units_per_round: 8,
                rounds: 28,
                ..base
            },
            _ => return None,
        };
        if smoke {
            spec.preload /= 10;
            spec.n_users /= 10;
            spec.key_space /= 10;
        }
        Some(spec)
    }

    pub fn ddl(&self) -> String {
        let mut ddl = String::from(
            "CREATE TYPE GleambookMessageType AS {
                messageId: int, authorId: int, inResponseTo: int?,
                senderLocation: point?, message: string
            };
            CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;",
        );
        if self.author_index {
            ddl.push_str("CREATE INDEX gbAuthorIdx ON GleambookMessages(authorId) TYPE BTREE;");
        }
        ddl
    }

    /// Timed rounds of a run of `seconds`: in proportion, so `--seconds`
    /// sets how much is measured but never lets the engine's speed decide it.
    pub fn rounds_for(&self, seconds: f64) -> usize {
        ((self.rounds as f64 * seconds / RUN_SECONDS).round() as usize).max(2)
    }

    /// Width of the `FilterTopK` author range: 2 % of the authors.
    pub fn topk_span(&self) -> i64 {
        (self.n_users / 50).max(1)
    }
}

pub fn query_text(kind: QueryKind, param: i64, span: i64) -> String {
    match kind {
        QueryKind::GroupCount => {
            format!("SELECT m.authorId AS a, COUNT(*) AS c FROM {DATASET} m GROUP BY m.authorId")
        }
        QueryKind::GroupCountSum => format!(
            "SELECT m.authorId AS a, COUNT(*) AS c, SUM(m.messageId) AS s \
             FROM {DATASET} m GROUP BY m.authorId"
        ),
        QueryKind::FilterTopK => format!(
            "SELECT m.messageId AS id, m.message AS msg FROM {DATASET} m \
             WHERE m.authorId >= {param} AND m.authorId < {} \
             ORDER BY m.messageId DESC LIMIT 10",
            param + span
        ),
        QueryKind::PkLookup => {
            format!("SELECT VALUE m.message FROM {DATASET} m WHERE m.messageId = {param}")
        }
        QueryKind::AuthorLookup => {
            format!("SELECT VALUE m.message FROM {DATASET} m WHERE m.authorId = {param}")
        }
    }
}

/// Every live record as `{id, a, msg}` — the recovery and end-of-run check.
pub fn dump_query() -> String {
    format!("SELECT m.messageId AS id, m.authorId AS a, m.message AS msg FROM {DATASET} m")
}

/// Seeded generator of one workload's records and ops. Two generators with
/// the same spec and seed produce the same stream.
pub struct OpGen {
    spec: Spec,
    records: DataGen,
    params: DataGen,
    next_new_id: i64,
    hash: u64,
}

impl OpGen {
    pub fn new(spec: &Spec, seed: u64) -> OpGen {
        OpGen {
            spec: *spec,
            records: DataGen::new(seed),
            // a second stream, so the number of records drawn never shifts
            // the query parameters
            params: DataGen::new(seed ^ 0x5eed_0b5e_55ed_c0de),
            next_new_id: spec.preload + 1,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn rec(&mut self, id: i64) -> Rec {
        let value = self.records.message(id, self.spec.n_users);
        let rec = Rec {
            id,
            author: value.field("authorId").as_i64().unwrap_or_default(),
            message: value
                .field("message")
                .as_str()
                .unwrap_or_default()
                .to_owned(),
            text: to_adm_string(&value),
        };
        self.absorb(&rec.text);
        rec
    }

    fn query(&mut self, kind: QueryKind, param: i64) -> Op {
        let text = query_text(kind, param, self.spec.topk_span());
        self.absorb(&text);
        Op::Query { kind, param, text }
    }

    fn absorb(&mut self, text: &str) {
        // FNV-1a
        for b in text.bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash of every record and statement generated so far.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    pub fn records(&mut self, ids: std::ops::RangeInclusive<i64>) -> Vec<Rec> {
        ids.map(|id| self.rec(id)).collect()
    }

    /// The records set-up loads: ids `1..=preload`.
    pub fn preload(&mut self) -> Vec<Rec> {
        self.records(1..=self.spec.preload)
    }

    /// The next round: `units_per_round` units, where a unit is
    /// - `scan_agg`: one of each of the three read-only shapes;
    /// - `pk_lookup`: one primary-key lookup of a loaded key;
    /// - `ingest`: one upsert transaction over the fixed key space;
    /// - `htap_mix`: one upsert transaction (half overwrites, half new
    ///   keys), eight `authorId` lookups, one aggregate.
    pub fn next_round(&mut self) -> Vec<Op> {
        let spec = self.spec;
        let mut ops = Vec::new();
        for _ in 0..spec.units_per_round {
            match spec.name {
                "scan_agg" => {
                    ops.push(self.query(QueryKind::GroupCount, 0));
                    ops.push(self.query(QueryKind::GroupCountSum, 0));
                    let lo = self.params.int(1, spec.n_users - spec.topk_span() + 1);
                    ops.push(self.query(QueryKind::FilterTopK, lo));
                }
                "pk_lookup" => {
                    let key = self.params.int(1, spec.preload + 1);
                    ops.push(self.query(QueryKind::PkLookup, key));
                }
                "ingest" => {
                    let recs = (0..spec.txn_size)
                        .map(|_| {
                            let id = self.params.int(1, spec.key_space + 1);
                            self.rec(id)
                        })
                        .collect();
                    ops.push(Op::Txn { recs });
                }
                "htap_mix" => {
                    let recs = (0..spec.txn_size)
                        .map(|i| {
                            let id = if i % 2 == 0 {
                                self.params.int(1, spec.preload + 1)
                            } else {
                                self.next_new_id += 1;
                                self.next_new_id - 1
                            };
                            self.rec(id)
                        })
                        .collect();
                    ops.push(Op::Txn { recs });
                    for _ in 0..8 {
                        let author = self.params.int(1, spec.n_users + 1);
                        ops.push(self.query(QueryKind::AuthorLookup, author));
                    }
                    ops.push(self.query(QueryKind::GroupCount, 0));
                }
                other => unreachable!("Spec::named admits no workload {other:?}"),
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str, seed: u64) -> (u64, usize) {
        let spec = Spec::named(name, true).expect("known workload");
        let mut gen = OpGen::new(&spec, seed);
        let mut n = gen.preload().len();
        for _ in 0..3 {
            n += gen.next_round().len();
        }
        (gen.stream_hash(), n)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in WORKLOADS {
            assert_eq!(stream(name, 7), stream(name, 7), "{name}");
            assert_ne!(stream(name, 7).0, stream(name, 8).0, "{name}");
        }
    }

    #[test]
    fn record_text_parses_back_to_the_generated_fields() {
        let spec = Spec::named("ingest", true).expect("known workload");
        let mut gen = OpGen::new(&spec, 3);
        let Op::Txn { recs } = gen.next_round().remove(0) else {
            panic!("ingest emits txns")
        };
        for rec in recs {
            let value = asterix_adm::parse::parse_value(&rec.text).expect("ADM text parses");
            assert_eq!(value.field("messageId").as_i64(), Some(rec.id));
            assert_eq!(value.field("authorId").as_i64(), Some(rec.author));
            assert_eq!(value.field("message").as_str(), Some(rec.message.as_str()));
        }
    }

    #[test]
    fn timed_rounds_follow_the_seconds_asked_for_and_nothing_else() {
        let spec = Spec::named("scan_agg", false).expect("known workload");
        assert_eq!(spec.rounds_for(RUN_SECONDS), spec.rounds);
        assert_eq!(spec.rounds_for(RUN_SECONDS / 2.0), spec.rounds / 2);
        assert_eq!(spec.rounds_for(0.0), 2);
    }

    #[test]
    fn htap_transactions_are_half_overwrites() {
        let spec = Spec::named("htap_mix", false).expect("known workload");
        let mut gen = OpGen::new(&spec, 1);
        let Op::Txn { recs } = gen.next_round().remove(0) else {
            panic!("txn first")
        };
        let overwrites = recs.iter().filter(|r| r.id <= spec.preload).count();
        assert_eq!(overwrites, spec.txn_size / 2);
    }
}
