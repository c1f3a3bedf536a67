#!/usr/bin/env python3
"""Regenerate a committed perf baseline (BENCH_*.json).

Usage:
    make_bench_baseline.py [--bench sched_speed|sim_throughput]
                           [--build-dir build] [--output FILE]
                           [--min-time 0.05] [--input FRESH.json]
                           [--before BEFORE.json]

Runs the Release-built benchmark binary over every registered benchmark
(or reuses an existing google-benchmark JSON via --input), then writes a
baseline document. The binary runs pinned to one CPU of this process's
own affinity set (the highest-numbered; run the tool under `taskset` to
choose it) with --benchmark_repetitions=3, and each row keeps its
fastest repetition: one unpinned run moved rows of unchanged code by up
to 1.5x between regenerations. The document holds:

  - "results": human-oriented before/after rows — for sched_speed the
    optimized-vs-reference-twin pairs, for sim_throughput the
    slots/sec of each grid point paired against a pre-change run given
    via --before (the numbers quoted in docs/performance.md);
  - "raw": the flat {benchmark name: cpu ns} map tools/compare_bench.py
    checks CI runs against;
  - "build_type" (read from the build dir's CMakeCache.txt) and
    "git_rev", so compare_bench.py can warn when a Release run is
    compared against a Debug baseline or vice versa;
  - "library_build_type": the google-benchmark library's own build
    flavour from the JSON context ("debug" adds timing overhead that
    compare_bench.py warns about);
  - "cpu" (null with --input), "repetitions" and "aggregate": "min",
    how the rows were taken.

Only the Python standard library is used.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

REPETITIONS = 3

SCHED_SPEED_PAIRS = [
    ("lcf_central", "BM_LcfCentral", "BM_LcfCentralReference"),
    ("lcf_central_rr", "BM_LcfCentralRr", "BM_LcfCentralRrReference"),
    ("lcf_dist", "BM_LcfDist", "BM_LcfDistReference"),
    ("lcf_dist_rr", "BM_LcfDistRr", "BM_LcfDistRrReference"),
]

BENCHES = {
    "sched_speed": {
        "binary": "bench_sched_speed",
        "output": "BENCH_sched_speed.json",
        "workload": "random request matrices, density 0.35 (BM_*Sparse "
                    "rows 0.02), iterations 4 (iterative schedulers)",
    },
    "sim_throughput": {
        "binary": "bench_sim_throughput",
        "output": "BENCH_sim_throughput.json",
        "workload": "whole SwitchSim runs and Clint bulk/quick channel "
                    "runs, 2048 slots (256 warmup), seed 42, scheduler "
                    "iterations 4; n=256 rows run at least 2.5 s each",
    },
}


def read_build_type(build_dir):
    """CMAKE_BUILD_TYPE from the build tree's CMakeCache.txt."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                m = re.match(r"CMAKE_BUILD_TYPE:\w+=(.*)", line.strip())
                if m:
                    return m.group(1) or "unknown"
    except OSError:
        pass
    return "unknown"


def read_git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fastest_runs(doc):
    """{benchmark name: its repetition with the least CPU time}."""
    best = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b["name"])
        if name not in best or b["cpu_time"] < best[name]["cpu_time"]:
            best[name] = b
    return best


def repetitions(doc):
    """Runs per benchmark in a google-benchmark JSON."""
    counts = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "aggregate":
            name = b.get("run_name", b["name"])
            counts[name] = counts.get(name, 0) + 1
    return max(counts.values(), default=0)


def raw_cpu_ns(doc):
    """Flat {benchmark name: cpu ns} from google-benchmark JSON."""
    raw = {}
    for name, b in fastest_runs(doc).items():
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        raw[name] = round(float(b["cpu_time"]) * scale, 1)
    return raw


def slots_per_sec(doc):
    """{benchmark name: items_per_second} for sim_throughput rows."""
    out = {}
    for name, b in fastest_runs(doc).items():
        ips = b.get("items_per_second")
        if ips is not None:
            out[name] = round(float(ips), 1)
    return out


def sched_speed_results(raw):
    results = []
    for sched, after_bm, before_bm in SCHED_SPEED_PAIRS:
        sizes = sorted(
            int(name.split("/")[1])
            for name in raw
            if name.startswith(after_bm + "/"))
        for n in sizes:
            after = raw.get(f"{after_bm}/{n}")
            before = raw.get(f"{before_bm}/{n}")
            if after is None or before is None:
                continue
            results.append({
                "scheduler": sched,
                "n": n,
                "cpu_ns_before": before,
                "cpu_ns_after": after,
                "speedup": round(before / after, 2) if after > 0 else None,
            })
    return results


def sim_throughput_results(doc, before_doc):
    after = slots_per_sec(doc)
    before = slots_per_sec(before_doc) if before_doc else {}
    results = []
    for name in sorted(after):
        row = {"point": name, "slots_per_sec": after[name]}
        if name in before:
            row["slots_per_sec_before"] = before[name]
            if before[name] > 0:
                row["speedup"] = round(after[name] / before[name], 2)
        results.append(row)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", choices=sorted(BENCHES),
                        default="sched_speed")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--output", default=None,
                        help="output path (default: the bench's "
                             "committed BENCH_*.json name)")
    parser.add_argument("--min-time", type=float, default=0.05)
    parser.add_argument("--input", default=None,
                        help="reuse this google-benchmark JSON instead "
                             "of running the binary")
    parser.add_argument("--before", default=None,
                        help="sim_throughput only: pre-change "
                             "google-benchmark JSON whose slots/sec "
                             "becomes the before side of each row")
    args = parser.parse_args()

    spec = BENCHES[args.bench]
    output = args.output or spec["output"]

    cpu = None
    if args.input:
        with open(args.input) as f:
            doc = json.load(f)
    else:
        binary = os.path.join(args.build_dir, "bench", spec["binary"])
        if not os.path.exists(binary):
            print(f"{binary} not found; build the Release tree first",
                  file=sys.stderr)
            return 2
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            tmp_path = tmp.name
        cpu = max(os.sched_getaffinity(0))
        try:
            subprocess.run(
                [binary, f"--benchmark_min_time={args.min_time}",
                 f"--benchmark_repetitions={REPETITIONS}",
                 "--benchmark_display_aggregates_only=true",
                 "--json", tmp_path],
                check=True,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
            with open(tmp_path) as f:
                doc = json.load(f)
        finally:
            os.unlink(tmp_path)

    raw = raw_cpu_ns(doc)
    if args.bench == "sched_speed":
        results = sched_speed_results(raw)
    else:
        before_doc = None
        if args.before:
            with open(args.before) as f:
                before_doc = json.load(f)
        results = sim_throughput_results(doc, before_doc)

    baseline = {
        "bench": spec["binary"],
        "workload": spec["workload"],
        "build_type": read_build_type(args.build_dir),
        "git_rev": read_git_rev(),
        "library_build_type": doc.get("context", {}).get(
            "library_build_type", "unknown"),
        "host_cpus": doc.get("context", {}).get("num_cpus"),
        "cpu": cpu,
        "repetitions": repetitions(doc),
        "aggregate": "min",
        "results": results,
        "raw": raw,
    }
    with open(output, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"wrote {output}: {len(results)} result rows, "
          f"{len(raw)} raw entries "
          f"(build_type={baseline['build_type']}, "
          f"library_build_type={baseline['library_build_type']}, "
          f"git_rev={baseline['git_rev']}, cpu={cpu}, "
          f"repetitions={baseline['repetitions']})")
    for row in results:
        if args.bench == "sched_speed":
            print(f"  {row['scheduler']:16} n={row['n']:<4} "
                  f"{row['cpu_ns_before']:>12.1f} -> "
                  f"{row['cpu_ns_after']:>10.1f} ns ({row['speedup']}x)")
        else:
            before = row.get("slots_per_sec_before")
            speedup = row.get("speedup")
            suffix = (f"  (before {before:>10.1f}, {speedup}x)"
                      if before is not None else "")
            print(f"  {row['point']:50} {row['slots_per_sec']:>12.1f} "
                  f"slots/s{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
