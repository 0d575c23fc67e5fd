#!/usr/bin/env python3
"""Noise calibration and comparison for the benchmark's end-to-end metrics.

  run.sh --calibrate [SETS] [SEED]
      Runs SETS (default 10, at least 5) untraced run-sets of the current
      commit and writes the spread of every (workload, metric) pair, and the
      bounds they imply, to CALIBRATION.md. Without SEED, set i runs with
      seed 1000 + i, which is how the benchmark's acceptance check varies it;
      with SEED every set uses it, which leaves the host's noise alone.

  run.sh --calibrate report
      Rewrites CALIBRATION.md from the run-sets the last calibration saved.

  run.sh --compare A B
      A and B are run-sets: a file as `--calibrate` saves them under out/
      ({workload: {metric: value}}), or a directory holding the
      `<workload>.json` files a plain `run.sh` leaves. Exits nonzero if any
      end-to-end metric of B is worse than A's by more than its bound in
      BENCHMARK.json.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
# A committed bound should be at least 3 x the worst interquartile spread seen
# (so that a spread stays under a third of its bound) and at least the floor;
# it must be at least that spread itself.
FLOORS = {"peak_rss_mb": 0.03, "setup_s": 0.05, "disk_bytes_per_user_byte": 0.005,
          "written_bytes_per_user_byte": 0.005}
# Per-layer times that were end-to-end metrics until their spread on this host
# ruled it out; the report keeps showing it, so a steadier host is noticed.
WATCHED = ["client.ops_per_s", "client.p50_ms", "core.recover_s"]
# The most a bound may be: the benchmark contract this repository's driver
# checks BENCHMARK.json against refuses anything larger.
CAP = 0.25


def loadavg():
    return open("/proc/loadavg").read().split()[0]


def run_once(workload, seed):
    """One untraced run: its end-to-end metrics and the WATCHED ones."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=os.path.join(HERE, ".."), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong answers, not calibrating on them")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    left = json.load(open(os.path.join(HERE, "out", f"{workload}.json")))
    values.update({name: left["per_layer"][name]["value"] for name in WATCHED})
    return values


def iqr_share(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibrate(args):
    """Runs the run-sets, saves them under out/, then writes the report."""
    if args == ["report"]:  # rebuild CALIBRATION.md from the saved run-sets
        return report()
    sets = int(args[0]) if args else 10
    seed = int(args[1]) if len(args) > 1 else None
    if sets < 5:
        sys.exit("calibration needs at least 5 run-sets")
    seeds = [seed if seed is not None else 1000 + i for i in range(sets)]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    load_start, started = loadavg(), time.time()
    runs = []  # one {workload: {metric: value}} per set
    for i, s in enumerate(seeds):
        runs.append({w: run_once(w, s) for w in WORKLOADS})
        with open(os.path.join(HERE, "out", f"runset-{i}.json"), "w") as f:
            json.dump(runs[-1], f, indent=1)
        print(f"run-set {i + 1}/{sets} done, load average {loadavg()}", file=sys.stderr)
    meta = {"seeds": seeds, "seconds": SPEC["run_seconds"], "cpus": os.cpu_count(),
            "load_start": load_start, "load_end": loadavg(),
            "minutes": round((time.time() - started) / 60)}
    with open(os.path.join(HERE, "out", "calibration.json"), "w") as f:
        json.dump({"meta": meta, "runs": runs}, f, indent=1)
    report()


def report():
    saved = json.load(open(os.path.join(HERE, "out", "calibration.json")))
    meta, runs = saved["meta"], saved["runs"]
    seeds = meta["seeds"]
    if len(set(seeds)) == 1:
        seeded = (f"every one with seed {seeds[0]}, so the spread below is the host's alone")
    else:
        seeded = (f"seeds {seeds[0]}..{seeds[-1]}, one each, as the acceptance check runs "
                  "them, so the spread below is the host's plus what the seed changes "
                  "(record sizes, key draws)")
    lines = [
        "# Calibration",
        "",
        f"{len(runs)} untraced run-sets of one commit, {seeded}; run_seconds = "
        f"{meta['seconds']}, {meta['cpus']} cpus; load average {meta['load_start']} at start and "
        f"{meta['load_end']} at end; {meta['minutes']} min in all. Written by "
        "`run.sh --calibrate`.",
        "",
        "`range` is (max - min) / median and `iqr` is (q3 - q1) / median, q1 and q3 as",
        "`statistics.quantiles(values, n=4)` gives them. The last three rows of a workload",
        "are per-layer metrics, shown because they would be end-to-end ones on a steadier",
        "host; they have no bound.",
        "",
        "| workload | metric | median | min | max | range | iqr |",
        "|---|---|---|---|---|---|---|",
    ]
    worst_range, worst_iqr = {}, {}
    for w in WORKLOADS:
        for name in list(METRICS) + WATCHED:
            v = [r[w][name] for r in runs]
            med = statistics.median(v)
            rng, iqr = (max(v) - min(v)) / med, iqr_share(v)
            worst_range[name] = max(worst_range.get(name, 0), rng)
            worst_iqr[name] = max(worst_iqr.get(name, 0), iqr)
            lines.append(f"| {w} | {name} | {med:.4g} | {min(v):.4g} | {max(v):.4g} "
                         f"| {rng:.2%} | {iqr:.2%} |")
    lines += [
        "",
        "## Bounds",
        "",
        "Per metric, over its worst workload. `needed` = max(3 x worst iqr, floor), so",
        "that a spread stays under a third of its bound. `committed` is what",
        "BENCHMARK.json holds. A row is marked (tight) when `needed` exceeds `committed`,",
        "and (!), with a nonzero exit, when the worst iqr itself does, which the",
        f"benchmark's acceptance check refuses, or when `committed` exceeds {CAP:.0%}, the most",
        "the benchmark contract lets a bound be.",
        "",
        "| metric | worst range | worst iqr | floor | needed | committed |",
        "|---|---|---|---|---|---|",
    ]
    ok = True
    for name in METRICS:
        needed = max(3 * worst_iqr[name], FLOORS[name])
        committed = METRICS[name]["bound"]
        if worst_iqr[name] > committed or committed > CAP:
            flag, ok = " (!)", False
        else:
            flag = "" if needed <= committed else " (tight)"
        lines.append(f"| {name} | {worst_range[name]:.2%} | {worst_iqr[name]:.2%} "
                     f"| {FLOORS[name]:.1%} | {needed:.1%} | {committed:.1%}{flag} |")
    lines += ["", "What the numbers mean for the bounds is in README.md, under",
              "\"Bounds, calibration, comparison\"."]
    with open(os.path.join(HERE, "CALIBRATION.md"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    sys.exit(0 if ok else 1)


def load_runset(path):
    """A run-set file, or a directory of the `<workload>.json` files runs leave."""
    if not os.path.isdir(path):
        return json.load(open(path))
    files = {w: json.load(open(os.path.join(path, f"{w}.json"))) for w in WORKLOADS}
    for w, f in files.items():
        if not f["comparable"]:
            sys.exit(f"{path}/{w}.json is a --smoke or --inject-wrong run: not comparable")
    return {w: {n: m["value"] for n, m in f["end_to_end"].items()} for w, f in files.items()}


def compare(args):
    if len(args) != 2:
        sys.exit(__doc__)
    a, b = (load_runset(p) for p in args)
    worse = 0
    for w in WORKLOADS:
        for name, m in METRICS.items():
            base, new = a[w][name], b[w][name]
            change = (new - base) / base if m["better"] == "lower" else (base - new) / base
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{w:10} {name:28} {base:12.5g} -> {new:12.5g}  "
                  f"{change:+7.2%} for the worse (bound {m['bound']:.1%})  {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    {"--calibrate": calibrate, "--compare": compare}[mode](rest)
