//! The per-figure/per-claim experiments (see DESIGN.md's experiment index).
//!
//! Each module exposes `run(quick: bool) -> ExpReport`. `quick` shrinks the
//! workloads for CI/tests; the full sizes produced the numbers recorded in
//! EXPERIMENTS.md.

pub mod e01_gleambook;
pub mod e02_spatial;
pub mod e03_btree_vs_hash;
pub mod e04_scaleout;
pub mod e05_memory;
pub mod e06_htap;
pub mod e07_sorted_pk_fetch;
pub mod e08_lsm_merge;
pub mod e09_two_languages;
pub mod e10_open_closed;
pub mod e11_point_mbr;
pub mod e12_txn_recovery;
pub mod e13_ablations;

use crate::ExpReport;

/// All experiments in order.
pub fn all(quick: bool) -> Vec<ExpReport> {
    vec![
        e01_gleambook::run(quick),
        e02_spatial::run(quick),
        e03_btree_vs_hash::run(quick),
        e04_scaleout::run(quick),
        e05_memory::run(quick),
        e06_htap::run(quick),
        e07_sorted_pk_fetch::run(quick),
        e08_lsm_merge::run(quick),
        e09_two_languages::run(quick),
        e10_open_closed::run(quick),
        e11_point_mbr::run(quick),
        e12_txn_recovery::run(quick),
        e13_ablations::run(quick),
    ]
}

/// Runs one experiment by id (`e1`..`e13`); None for unknown ids.
pub fn by_id(id: &str, quick: bool) -> Option<ExpReport> {
    Some(match id.to_ascii_lowercase().as_str() {
        "e1" | "e01" => e01_gleambook::run(quick),
        "e2" | "e02" => e02_spatial::run(quick),
        "e3" | "e03" => e03_btree_vs_hash::run(quick),
        "e4" | "e04" => e04_scaleout::run(quick),
        "e5" | "e05" => e05_memory::run(quick),
        "e6" | "e06" => e06_htap::run(quick),
        "e7" | "e07" => e07_sorted_pk_fetch::run(quick),
        "e8" | "e08" => e08_lsm_merge::run(quick),
        "e9" | "e09" => e09_two_languages::run(quick),
        "e10" => e10_open_closed::run(quick),
        "e11" => e11_point_mbr::run(quick),
        "e12" => e12_txn_recovery::run(quick),
        "e13" => e13_ablations::run(quick),
        _ => return None,
    })
}

/// The Figure 3(a) DDL shared by several experiments.
pub fn gleambook_ddl() -> &'static str {
    r#"
    CREATE TYPE EmploymentType AS {
        organizationName: string, startDate: date, endDate: date?
    };
    CREATE TYPE GleambookUserType AS {
        id: int, alias: string, name: string, userSince: datetime,
        friendIds: {{ int }}, employment: [EmploymentType]
    };
    CREATE TYPE GleambookMessageType AS {
        messageId: int, authorId: int, inResponseTo: int?,
        senderLocation: point?, message: string
    };
    CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
    CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;
    CREATE INDEX gbUserSinceIdx ON GleambookUsers(userSince);
    CREATE INDEX gbAuthorIdx ON GleambookMessages(authorId) TYPE BTREE;
    CREATE INDEX gbSenderLocIndex ON GleambookMessages(senderLocation) TYPE RTREE;
    CREATE INDEX gbMessageIdx ON GleambookMessages(message) TYPE KEYWORD;
    "#
}

/// Unique temp dir for an experiment.
pub fn exp_dir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "asterix-exp-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}
