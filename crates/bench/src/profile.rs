//! `repro profile` — EXPLAIN PROFILE-style per-operator profiles.
//!
//! Runs an experiment's representative query against a freshly loaded
//! instance and renders the profile tree the executor assembled
//! (`QueryHandle::profile`): per operator-partition tuple/frame/byte
//! counts, queue-wait vs. compute time, spill activity, and per-destination
//! exchange routing. Output is both a human text tree and a report for
//! tooling, whose shape `scripts/bench-check.py` checks in CI.

use crate::experiments::gleambook_ddl;
use asterix_core::datagen::DataGen;
use asterix_core::instance::Instance;
use asterix_obs::Json;

/// One profiled run: the text tree plus the report.
pub struct ProfileRun {
    pub text: String,
    pub json: Json,
}

/// Profiles `experiment`'s representative query. Returns `None` for an
/// unknown experiment id. Currently e1/e01 (the Gleambook workload of the
/// paper's Figure 3) is the profiled experiment: its query exercises scan,
/// hash join, and grouped aggregation in one plan.
pub fn run(experiment: &str, quick: bool) -> Option<ProfileRun> {
    let canon = match experiment.to_ascii_lowercase().as_str() {
        "e1" | "e01" | "gleambook" => "e01",
        _ => return None,
    };
    let (users, messages) = if quick { (200, 600) } else { (2_000, 6_000) };
    let db = Instance::temp().ok()?;
    db.execute_sqlpp(gleambook_ddl()).ok()?;
    let mut gen = DataGen::new(42);
    {
        let mut txn = db.begin();
        for i in 1..=users {
            txn.write("GleambookUsers", &gen.user(i), true).ok()?;
        }
        txn.commit().ok()?;
    }
    {
        let mut txn = db.begin();
        for i in 1..=messages {
            txn.write("GleambookMessages", &gen.message(i, users), true).ok()?;
        }
        txn.commit().ok()?;
    }
    // Scan both datasets, hash-join messages to their authors, then group:
    // message volume per author — the E1-shaped analytical plan.
    let handle = db
        .session()
        .submit(
            "SELECT u.id AS author, COUNT(m.messageId) AS msgs \
             FROM GleambookUsers u JOIN GleambookMessages m ON m.authorId = u.id \
             GROUP BY u.id",
        )
        .ok()?;
    handle.wait().ok()?;
    let profile = handle.profile()?;
    let sections = [("experiment", Json::str(canon)), ("profile", profile.to_json())];
    Some(ProfileRun {
        text: profile.render_text(),
        json: crate::report_doc("repro profile", quick, sections),
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_experiment_is_none() {
        assert!(super::run("e99", true).is_none());
    }

    #[test]
    fn e01_profile_has_the_plan_shape() {
        let run = super::run("e01", true).expect("e01 profiles");
        assert!(run.text.contains("job profile"), "{}", run.text);
        let json = run.json.render_pretty();
        assert!(json.contains("\"generated_by\": \"repro profile\""), "{json}");
        assert!(json.contains("\"experiment\": \"e01\""));
        // The representative plan must actually contain its three stages.
        for op in ["scan", "join", "group"] {
            assert!(
                run.text.to_ascii_lowercase().contains(op),
                "profile tree is missing a {op} operator:\n{}",
                run.text
            );
        }
    }
}
