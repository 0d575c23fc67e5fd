//! Direct probes of the two bottom layers, outside any instance: the ADM
//! codec and a standalone LSM tree and log, fed the workload's own records.
//! They give the floor a layer sets under an end-to-end number (for example
//! `storage.lsm_get_us` against `pk_lookup`'s `p50_ms`).

use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{Rec, DATASET};
use asterix_adm::binary::{decode, encode, encode_key};
use asterix_adm::parse::parse_value;
use asterix_adm::Value;
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::lsm::{LsmConfig, LsmTree};
use asterix_storage::stats::IoStats;
use asterix_storage::wal::{WalRecord, WalWriter};
use std::path::Path;
use std::time::Instant;

const REPEATS: usize = 3;
const SYNCS: usize = 40;

/// Times `body` and records it as a root span.
fn timed<T>(tr: &mut Tracer, name: &'static str, body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = body();
    let end = Instant::now();
    tr.record(name, start, end, None);
    (out, end.duration_since(start).as_secs_f64())
}

fn us_per(seconds: f64, n: usize) -> f64 {
    ratio(seconds * 1e6, n as f64)
}

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Runs every probe `REPEATS` times over `sample` and returns the median of
/// each, keyed by metric name.
pub fn run(sample: &[Rec], dir: &Path, tr: &mut Tracer) -> Result<Vec<(&'static str, f64)>> {
    let mut runs: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for i in 0..REPEATS {
        let mut m = adm(sample, tr)?;
        m.extend(storage(sample, &dir.join(format!("probe{i}")), tr)?);
        runs.push(m);
    }
    Ok(runs[0]
        .iter()
        .enumerate()
        .map(|(k, (name, _))| {
            (
                *name,
                median(&runs.iter().map(|r| r[k].1).collect::<Vec<_>>()),
            )
        })
        .collect())
}

fn adm(sample: &[Rec], tr: &mut Tracer) -> Result<Vec<(&'static str, f64)>> {
    let n = sample.len();
    let (values, parse_s) = timed(tr, "adm.parse", || {
        sample
            .iter()
            .map(|r| parse_value(&r.text))
            .collect::<std::result::Result<Vec<Value>, _>>()
    });
    let values = values?;
    let (encoded, encode_s) = timed(tr, "adm.encode", || {
        values.iter().map(encode).collect::<Vec<Vec<u8>>>()
    });
    let (decoded, decode_s) = timed(tr, "adm.decode", || {
        encoded
            .iter()
            .map(|b| decode(b))
            .collect::<std::result::Result<Vec<Value>, _>>()
    });
    if decoded? != values {
        return Err("ADM binary round trip changed a record".into());
    }
    Ok(vec![
        ("adm.parse_us_per_rec", us_per(parse_s, n)),
        ("adm.encode_us_per_rec", us_per(encode_s, n)),
        ("adm.decode_us_per_rec", us_per(decode_s, n)),
    ])
}

fn storage(sample: &[Rec], dir: &Path, tr: &mut Tracer) -> Result<Vec<(&'static str, f64)>> {
    let n = sample.len();
    std::fs::create_dir_all(dir)?;
    let entries: Vec<(Vec<u8>, Vec<u8>)> = sample
        .iter()
        .map(|r| {
            Ok((
                encode_key(&[Value::Int(r.id)]),
                encode(&parse_value(&r.text)?),
            ))
        })
        .collect::<Result<_>>()?;
    let bytes: usize = entries.iter().map(|(k, v)| k.len() + v.len()).sum();

    let cache = BufferCache::new(FileManager::new(dir, IoStats::new())?, 1024);
    // a budget no sample reaches, so the flush below is the only one
    let config = LsmConfig {
        mem_budget: 1 << 30,
        ..LsmConfig::new("probe")
    };
    let mut tree = LsmTree::new(cache, config);
    let (res, upsert_s) = timed(tr, "storage.lsm_upsert", || {
        entries
            .iter()
            .try_for_each(|(k, v)| tree.upsert(k.clone(), v.clone()))
    });
    res?;
    let (res, flush_s) = timed(tr, "storage.lsm_flush", || tree.flush());
    res?;
    // every key once, in an order unrelated to key order
    let (found, get_s) = timed(tr, "storage.lsm_get", || {
        (0..n)
            .map(|i| tree.get(&entries[i * 7919 % n].0))
            .filter(|r| matches!(r, Ok(Some(_))))
            .count()
    });
    let (scanned, scan_s) = timed(tr, "storage.lsm_scan", || {
        tree.scan().map(|rows| rows.len())
    });
    if found != n || scanned? != n {
        return Err("standalone LSM tree lost entries".into());
    }

    let mut wal = WalWriter::open(dir.join("probe.wal"))?;
    let records: Vec<WalRecord> = entries
        .iter()
        .enumerate()
        .map(|(i, (k, v))| WalRecord::Update {
            txn_id: i as u64,
            dataset: DATASET.to_string(),
            partition: 0,
            is_delete: false,
            key: k.clone(),
            value: v.clone(),
        })
        .collect();
    let (res, append_s) = timed(tr, "storage.wal_append", || {
        records.iter().try_for_each(|r| wal.append(r).map(drop))
    });
    res?;
    let mut sync_us = Vec::with_capacity(SYNCS);
    for r in records.iter().take(SYNCS) {
        wal.append(r)?;
        let (res, s) = timed(tr, "storage.wal_sync", || wal.sync());
        res?;
        sync_us.push(s * 1e6);
    }
    Ok(vec![
        ("storage.lsm_upsert_us", us_per(upsert_s, n)),
        ("storage.lsm_get_us", us_per(get_s, n)),
        ("storage.lsm_scan_us_per_krec", us_per(scan_s, n) * 1e3),
        (
            "storage.lsm_flush_ms_per_mb",
            ratio(flush_s * 1e3, bytes as f64 / (1 << 20) as f64),
        ),
        ("storage.wal_append_us", us_per(append_s, n)),
        ("storage.wal_sync_us", median(&sync_us)),
    ])
}
