//! Deterministic fault injection + crash recovery, end to end.
//!
//! Opens an instance whose storage stack crashes after the Nth I/O
//! operation, runs transactions until the crash bites, then reopens the
//! data directory fault-free and shows which transactions survived.
//! The same `(seed, crash point)` pair replays the identical failure
//! schedule — run it twice and compare.
//!
//! ```sh
//! cargo run --release --example fault_injection            # seed 7, crash after 5 I/Os
//! cargo run --release --example fault_injection -- 7 5     # explicit seed + crash point
//! ```

use asterix_core::{Instance, InstanceConfig};
use asterix_storage::faults::FaultInjector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map(|a| a.parse()).transpose()?.unwrap_or(7);
    let crash_after: u64 = args.next().map(|a| a.parse()).transpose()?.unwrap_or(5);

    let dir = std::env::temp_dir().join(format!("asterix-fault-demo-{seed}-{crash_after}"));
    let _ = std::fs::remove_dir_all(&dir);

    // set-up is fault-free, so that the crash point counts the I/O of the
    // transactions below (creating the catalog and the dataset's manifests
    // is a couple of dozen operations of its own)
    Instance::open(InstanceConfig { data_dir: Some(dir.clone()), nodes: 1, ..Default::default() })?
        .execute_sqlpp(
            "CREATE TYPE KVType AS { k: int, v: string };
             CREATE DATASET kv(KVType) PRIMARY KEY k;",
        )?;
    let injector = FaultInjector::crash_after(seed, crash_after);
    let db = Instance::open(InstanceConfig {
        data_dir: Some(dir.clone()),
        nodes: 1,
        faults: Some(injector.clone()),
        ..Default::default()
    })?;

    println!("injecting: crash after I/O op {crash_after} (seed {seed})");
    for t in 1..=6i64 {
        let mut txn = db.begin();
        let mut ok = true;
        for i in 0..3i64 {
            let rec = asterix_adm::parse::parse_value(&format!(
                "{{\"k\": {}, \"v\": \"txn{t}\"}}",
                t * 10 + i
            ))?;
            if txn.write("kv", &rec, true).is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            println!("txn {t}: crashed mid-body (rolled back)");
            continue;
        }
        match txn.commit() {
            Ok(()) => println!("txn {t}: committed"),
            Err(e) => println!("txn {t}: commit failed mid-force ({e})"),
        }
    }
    println!("\nfault schedule (replays byte-for-byte for this seed):");
    for ev in injector.events() {
        println!("  {ev:?}");
    }
    drop(db); // crash: memory components are lost, the log tail survives

    let db = Instance::open(InstanceConfig {
        data_dir: Some(dir.clone()),
        nodes: 1,
        ..Default::default()
    })?;
    let mut rows = db.query("SELECT VALUE d.k FROM kv d")?;
    rows.sort_by_key(|v| v.as_i64());
    println!("\nrecovered keys: {rows:?}");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
