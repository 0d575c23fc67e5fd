//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` lists the same ones (a test holds the two together).

use asterix_obs::Json;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Reported by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("disk_bytes_per_user_byte", "ratio", "lower"),
    m("written_bytes_per_user_byte", "ratio", "lower"),
];

/// One layer each; the layer is the name up to the dot, `client` being the
/// harness itself. Reported by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("client.samples", "count", "higher"),
    m("client.ops_per_s", "1/s", "higher"),
    m("client.p50_ms", "ms", "lower"),
    m("client.p95_ms", "ms", "lower"),
    m("client.p99_ms", "ms", "lower"),
    m("client.read_p50_ms", "ms", "lower"),
    m("client.write_p50_ms", "ms", "lower"),
    m("client.agg_p50_ms", "ms", "lower"),
    m("client.round_spread", "ratio", "lower"),
    m("client.trace_overhead", "ratio", "lower"),
    m("adm.parse_us_per_rec", "us", "lower"),
    m("adm.encode_us_per_rec", "us", "lower"),
    m("adm.decode_us_per_rec", "us", "lower"),
    m("sqlpp.parse_us", "us", "lower"),
    m("algebricks.plan_us", "us", "lower"),
    m("algebricks.rows_examined_per_result", "ratio", "lower"),
    m("hyracks.job_ms", "ms", "lower"),
    m("hyracks.compute_ms", "ms", "lower"),
    m("hyracks.queue_wait_ms", "ms", "lower"),
    m("hyracks.scan_compute_ms", "ms", "lower"),
    m("hyracks.groupby_compute_ms", "ms", "lower"),
    m("hyracks.sort_compute_ms", "ms", "lower"),
    m("hyracks.morsels_per_op", "count", "lower"),
    m("hyracks.park_ms_per_op", "ms", "lower"),
    m("hyracks.tuples_moved_per_op", "count", "lower"),
    m("hyracks.spilled_bytes_per_op", "bytes", "lower"),
    m("storage.cache_hit_ratio", "ratio", "higher"),
    m("storage.pages_read_per_op", "count", "lower"),
    m("storage.evictions_per_op", "count", "lower"),
    m("storage.readaheads_per_op", "count", "lower"),
    m("storage.bytes_written_per_user_byte", "ratio", "lower"),
    m("storage.write_amp", "ratio", "lower"),
    m("storage.read_amp", "ratio", "lower"),
    m("storage.space_amp", "ratio", "lower"),
    m("storage.merge_stall_ms", "ms", "lower"),
    m("storage.components_created", "count", "lower"),
    m("storage.components_live", "count", "lower"),
    m("storage.wal_syncs", "count", "lower"),
    m("storage.wal_bytes", "bytes", "lower"),
    m("storage.lsm_upsert_us", "us", "lower"),
    m("storage.lsm_get_us", "us", "lower"),
    m("storage.lsm_scan_us_per_krec", "us", "lower"),
    m("storage.lsm_flush_ms_per_mb", "ms", "lower"),
    m("storage.wal_append_us", "us", "lower"),
    m("storage.wal_sync_us", "us", "lower"),
    m("core.submit_overhead_ms", "ms", "lower"),
    m("core.txn_write_us_per_rec", "us", "lower"),
    m("core.txn_commit_ms", "ms", "lower"),
    m("core.flush_all_ms", "ms", "lower"),
    m("core.open_ms", "ms", "lower"),
    m("core.recover_s", "s", "lower"),
    m("core.recover_ms_per_wal_mb", "ms", "lower"),
    m("core.admitted", "count", "higher"),
    m("core.rejected", "count", "lower"),
    m("core.query_retries", "count", "lower"),
];

/// `{name: {value, unit}}` for every metric of `defs`.
pub fn to_json(values: &BTreeMap<&'static str, f64>, defs: &[MetricDef]) -> Json {
    let one = |d: &MetricDef| {
        let fields = vec![
            ("value".to_string(), Json::F64(values[d.name])),
            ("unit".to_string(), Json::str(d.unit)),
        ];
        (d.name.to_string(), Json::Obj(fields))
    };
    Json::Obj(defs.iter().map(one).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits outside this package, so nothing but this test
    /// keeps its metric lists and workloads equal to what the binary prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                def.name, def.unit, def.better
            );
            assert_eq!(text.matches(&entry).count(), 1, "{entry}");
        }
        assert_eq!(
            text.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert_eq!(text.matches("\"bound\":").count(), END_TO_END.len());
        for w in crate::workload::WORKLOADS {
            assert_eq!(
                text.matches(&format!("{{\"name\":\"{w}\",\"why\":"))
                    .count(),
                1,
                "{w}"
            );
        }
        assert_eq!(
            text.matches("\"why\":").count(),
            crate::workload::WORKLOADS.len()
        );
    }
}
