#!/usr/bin/env python3
"""Checks a report of `repro hotpath | serving | feeds | profile`.

    scripts/bench-check.py FRESH [COMMITTED]

Asserts what must hold of any run of the suite FRESH says it is (its
`generated_by`), then compares FRESH with the COMMITTED `BENCH_*.json`, value
by value, as TABLE classifies each path. Every problem is printed as
`path: what is wrong`; the exit status is 1 if there was one.
"""
import json
import re
import sys

# A time may be this many times the committed one, either way: throughput and
# latency on the shared 2-cpu host have an iqr of up to 37 % (benchmark/CALIBRATION.md).
BAND = 3.0

# suite -> [(path pattern, kind)], first match wins; `[*]` is any index, a
# trailing `**` any subtree. A path no pattern matches is an error, so a new
# field has to be classified before it can be committed.
#   same   equal always: a constant of the suite
#   count  equal when `quick` is equal: fixed by the input size, whatever the host and the schedule
#   time   within BAND when `quick` and `host.cpus` are equal: a throughput or a latency
#   free   not compared: prose, what the checker itself reads, counts the
#          schedule decides (steals, morsels, fsync rounds, what Discard dropped)
#          and times that are no statistic to compare — a
#          percentile with fewer than ten samples beyond it, a wall that has two
#          modes; the invariants below bound the ones that matter
HEADER = [
    ("schema_version", "same"),
    ("generated_by", "same"),
    ("quick", "free"),
    ("host.cpus", "free"),
    ("methodology", "free"),
    ("*.methodology", "free"),
]
TABLE = {
    "repro hotpath": HEADER + [
        ("cache_hit_microbench.rounds", "count"),
        ("cache_hit_microbench.results[0].pages_per_sec", "time"),
        # two scanners or more on 2 shared cpus: the aggregate has two modes, by
        # whether both cpus run at once (5-9 M or 15-23 M pages/s over eight runs)
        ("cache_hit_microbench.results[*].pages_per_sec", "free"),
        ("cache_hit_microbench.**", "same"),
        ("join_microbench.*_rows", "count"),
        ("join_microbench.*", "time"),
        ("morsel_scheduler.morsel_tuples", "same"),
        ("morsel_scheduler.records", "same"),
        ("morsel_scheduler.e04_measured[*].partitions", "same"),
        # the walls have two modes on 2 cpus (1 partition: ~15 or ~60 ms, by how
        # the two workers hand each other morsels): seven runs spread 5.4x
        ("morsel_scheduler.**", "free"),
        ("compaction.records", "count"),
        ("compaction.foreground.write_amp", "count"),
        ("compaction.foreground.merges", "count"),
        ("compaction.foreground.components_at_quiesce", "count"),
        ("compaction.foreground.*", "time"),
        # a seal finishes what the pool has not: the pool decides no count
        ("compaction.background.write_amp", "count"),
        ("compaction.background.merges", "count"),
        ("compaction.background.components_at_quiesce", "count"),
        ("compaction.background.ingest_wall_ms", "time"),
        ("compaction.**", "free"),
    ],
    "repro serving": HEADER + [
        ("workload.mix[*]", "same"),
        ("workload.*", "count"),
        ("scheduler.*", "same"),
        ("serving_counters.*", "count"),
        ("points[*].clients", "same"),
        ("points[*].queries", "count"),
        ("points[*].backpressure_retries", "count"),
        # 30 to 240 queries a point: 12 samples at most beyond p95, 2 beyond p99
        ("points[*].p95_ms", "free"),
        ("points[*].p99_ms", "free"),
        ("points[*].*", "time"),
    ],
    "repro feeds": HEADER + [
        ("durability.feeds", "same"),
        ("durability.batch", "same"),
        ("durability.mutations", "count"),
        ("durability.wal_*", "free"),
        ("durability.*", "time"),
        ("with_analytics.mutations", "count"),
        ("with_analytics.concurrent_queries", "free"),
        ("with_analytics.wal_*", "free"),
        ("with_analytics.*", "time"),
        ("policies[*].policy", "same"),
        ("policies[*].mutations_per_sec", "time"),
        ("policies[*].throttle_ms", "free"),
        # the split under Discard, and how much Spill put aside, are the consumer's pace
        ("policies[1].ingested", "free"),
        ("policies[1].discarded", "free"),
        ("policies[2].spilled", "free"),
        ("policies[*].*", "count"),
    ],
    "repro profile": HEADER + [("experiment", "same"), ("profile.**", "free")],
}


def leaves(node, path=""):
    """Every scalar of a document, as (path, value)."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaves(child, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from leaves(child, f"{path}[{i}]")
    else:
        yield path, node


def kind_of(suite, path):
    for pattern, kind in TABLE[suite]:
        regex = re.escape(pattern).replace(r"\[\*\]", r"\[\d+\]")
        regex = regex.replace(r"\*\*", r".+").replace(r"\*", r"[^.\[]+")
        if re.fullmatch(regex, path):
            return kind
    return None


# ---------------------------------------------------------------------------
# What must hold of any run
# ---------------------------------------------------------------------------

def check_hotpath(d, fail):
    cache = d["cache_hit_microbench"]
    if cache["timed_misses"] != 0:
        fail("cache_hit_microbench.timed_misses", f"{cache['timed_misses']} misses in the timed passes: not a hit bench")
    pps = [r["pages_per_sec"] for r in cache["results"]]
    if [r["scanners"] for r in cache["results"]] != [1, 2, 4, 8] or min(pps) <= 0:
        fail("cache_hit_microbench.results", "want positive rates at 1, 2, 4 and 8 scanners")
    # hits take no exclusive lock: piling on scanners must not collapse the aggregate
    elif pps[-1] < 0.25 * pps[0]:
        fail("cache_hit_microbench.results[3].pages_per_sec", f"8-scanner aggregate {pps[-1]} below a quarter of 1-scanner {pps[0]}")
    ms = d["morsel_scheduler"]
    if ms["workers"] < 1 or len(ms["queue_depths_at_idle"]) != ms["workers"] + 1:
        fail("morsel_scheduler.queue_depths_at_idle", "want one depth per worker plus the injector's")
    if [p["partitions"] for p in ms["e04_measured"]] != [1, 2, 4]:
        fail("morsel_scheduler.e04_measured", "want points at 1, 2 and 4 partitions")
    for i, p in enumerate(ms["e04_measured"]):
        if p["wall_ms"] <= 0 or p["morsels"] <= 0 or not 0.0 <= p["steal_rate"] <= 1.0:
            fail(f"morsel_scheduler.e04_measured[{i}]", f"wall, morsels or steal rate out of range: {p}")
    # dop is a scheduling decision, not a thread count: 4 partitions on the
    # shared pool must not cost more wall than 1 (10 % noise)
    if ms["wall_4p_over_1p"] > 1.1:
        fail("morsel_scheduler.wall_4p_over_1p", f"e04 wall at 4 partitions is {ms['wall_4p_over_1p']}x the 1-partition wall")
    comp = d["compaction"]
    for run in ("foreground", "background"):
        r = comp[run]
        if r["write_amp"] < 1.0:
            fail(f"compaction.{run}.write_amp", f"{r['write_amp']} < 1: merges cannot unwrite data")
        if r["merges"] < 1:
            fail(f"compaction.{run}.merges", "no merge ran: the comparison is vacuous")
    # every seal finishes the merge in flight, so the pool changes where a
    # merge runs, never which merges run
    for count in ("write_amp", "merges", "components_at_quiesce"):
        fg, bg = comp["foreground"][count], comp["background"][count]
        if bg != fg:
            fail(f"compaction.background.{count}", f"{bg} on the pool, {fg} on the caller: the executor changed what was merged")
    # moving merges off the write path must shrink the ingest stall
    fg, bg = comp["foreground"]["merge_stall_ms"], comp["background"]["merge_stall_ms"]
    if not 0 <= bg < fg:
        fail("compaction.background.merge_stall_ms", f"pool-executor stall {bg} ms not below on-caller stall {fg} ms")


def check_serving(d, fail):
    points = d["points"]
    clients = [p["clients"] for p in points]
    if len(points) < 3 or clients != sorted(set(clients)):
        fail("points", f"want >= 3 rising client counts, got {clients}")
    for i, p in enumerate(points):
        if p["qps"] <= 0:
            fail(f"points[{i}].qps", "not positive")
        if not p["p50_ms"] <= p["p95_ms"] <= p["p99_ms"]:
            fail(f"points[{i}].p95_ms", f"percentiles out of order: {p}")


def check_feeds(d, fail):
    dur = d["durability"]
    if dur["mutations"] <= 0 or dur["mutations_per_sec"] <= 0:
        fail("durability.mutations_per_sec", f"nothing ingested: {dur}")
    # every batch commit reaches the durability point: it either led an fsync
    # round or was covered by a concurrent committer's
    synced = dur["wal_group_commits"] + dur["wal_group_commit_waiters"]
    if dur["wal_group_commits"] <= 0 or synced < dur["mutations"] // dur["batch"]:
        fail("durability.wal_group_commits", f"{synced} syncs for {dur['mutations'] // dur['batch']} batch commits")
    ha = d["with_analytics"]
    if ha["mutations_per_sec"] <= 0:
        fail("with_analytics.mutations_per_sec", "no sustained ingest under analytics")
    if ha["concurrent_queries"] <= 0:
        fail("with_analytics.concurrent_queries", "no analytics ran alongside the feed")
    # the sustained run flushes all along: its log must have been truncated,
    # and at most two segments per node are ever needed
    if ha["wal_truncated_bytes"] <= 0:
        fail("with_analytics.wal_truncated_bytes", "the sustained run never truncated its log")
    if ha["wal_segments"] > 4:
        fail("with_analytics.wal_segments", f"{ha['wal_segments']} log segments left: the log is not bounded")
    if [p["policy"] for p in d["policies"]] != ["throttle", "discard", "spill"]:
        fail("policies", "want throttle, discard and spill, in that order")
    for i, p in enumerate(d["policies"]):
        for k in ("ingested", "discarded", "spilled", "throttle_ms"):
            if p[k] < 0:
                fail(f"policies[{i}].{k}", "negative")
        # every pushed record is ingested or discarded, and only Discard discards
        if p["ingested"] + p["discarded"] != p["pushed"]:
            fail(f"policies[{i}].ingested", f"{p['ingested']} ingested + {p['discarded']} discarded != {p['pushed']} pushed")
        elif p["policy"] != "discard" and p["discarded"] != 0:
            fail(f"policies[{i}].discarded", f"{p['policy']} lost {p['discarded']} records")


def check_profile(d, fail):
    if d["experiment"] != "e01" or d["profile"]["elapsed_ns"] < 0:
        fail("experiment", "want e01 and an elapsed time")
    seen = []

    def walk(op, path):
        seen.append(op["label"])
        if op["partitions"] < 1 or op["skew"] < 1.0:
            fail(path, f"{op['label']}: partitions or skew below 1")
        for k, v in op["totals"].items():
            if k != "frames_routed" and v < 0:
                fail(f"{path}.totals.{k}", "negative")
        for i, child in enumerate(op["inputs"]):
            walk(child, f"{path}.inputs[{i}]")

    walk(d["profile"]["operators"], "profile.operators")
    if seen[0] != "sink":
        fail("profile.operators.label", f"the tree must be rooted at the sink: {seen}")
    for stage in ("scan", "join", "group"):
        if stage not in " ".join(seen).lower():
            fail("profile.operators", f"no {stage} stage in {seen}")


CHECKS = {
    "repro hotpath": check_hotpath,
    "repro serving": check_serving,
    "repro feeds": check_feeds,
    "repro profile": check_profile,
}


# ---------------------------------------------------------------------------
# Fresh against committed
# ---------------------------------------------------------------------------

def compare(suite, fresh, committed, fail):
    same_size = fresh["quick"] == committed["quick"]
    same_host = fresh["host"]["cpus"] == committed["host"]["cpus"]
    new_values, old = dict(leaves(fresh)), dict(leaves(committed))
    compared = {"same": 0, "count": 0, "time": 0}
    skipped = {"count": 0, "time": 0, "free": 0}
    for path, new in new_values.items():
        kind = kind_of(suite, path)
        if kind is None:
            fail(path, "no entry of TABLE classifies this path")
        elif path not in old:
            # a longer or shorter list is a difference of the list's length, reported below
            if kind != "free":
                fail(path, "not in the committed file")
        elif kind == "free" or (kind == "count" and not same_size) or (kind == "time" and not (same_size and same_host)):
            skipped[kind] += 1
        elif kind == "time":
            compared[kind] += 1
            lo, hi = sorted((new, old[path]))
            if lo < 0 or hi > BAND * lo:
                fail(path, f"{new} is outside {BAND}x of the committed {old[path]}")
        else:
            compared[kind] += 1
            if new != old[path]:
                fail(path, f"{new}, committed {old[path]} ({kind})")
    for path in sorted(old.keys() - new_values.keys()):
        if kind_of(suite, path) != "free":
            fail(path, "in the committed file only")
    print(f"compared {compared['same']} constants, {compared['count']} counts, {compared['time']} times against the committed file")
    if not same_size:
        print(f"skipped: {skipped['count']} counts and {skipped['time']} times — quick is {fresh['quick']}, committed {committed['quick']}: the sizes differ")
    elif not same_host:
        print(f"skipped: {skipped['time']} times — {fresh['host']['cpus']} cpus, committed {committed['host']['cpus']}: not the same host")


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    fresh = json.load(open(argv[1]))
    suite = fresh["generated_by"]
    problems = []

    def fail(path, what):
        problems.append(f"{path}: {what}")

    if suite not in CHECKS:
        sys.exit(f"{argv[1]}: generated_by {suite!r} is no suite this script knows")
    try:
        CHECKS[suite](fresh, fail)
    except (KeyError, TypeError, IndexError) as e:
        fail("(shape)", f"{type(e).__name__} {e}: not a {suite} report")
    if len(argv) == 3:
        committed = json.load(open(argv[2]))
        if committed["generated_by"] != suite:
            fail("generated_by", f"{suite!r}, committed {committed['generated_by']!r}")
        else:
            compare(suite, fresh, committed, fail)
    else:
        print("no committed file given: nothing compared")
    for p in problems:
        print(p)
    print(f"{argv[1]}: {'FAILED' if problems else 'OK'} ({suite})")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main(sys.argv)
