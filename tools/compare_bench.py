#!/usr/bin/env python3
"""Compare a fresh benchmark run against a committed baseline.

Usage:
    compare_bench.py BASELINE.json FRESH.json [--max-ratio 3.0]
                     [--fresh-build-type Release]

BASELINE.json is a committed BENCH_*.json (see
tools/make_bench_baseline.py); its "raw" map holds per-benchmark CPU
times in nanoseconds and its "build_type"/"git_rev" record how it was
produced. FRESH.json is raw google-benchmark JSON output
(bench_* --json FRESH.json). The script exits nonzero when any
benchmark present in both files is slower than max-ratio times its
baseline — a deliberately loose bound so CI catches complexity
regressions (an accidental O(n^2) inner loop) without flaking on
machine-to-machine noise — and when any fresh benchmark has no baseline
entry, so a new or renamed row cannot pass unchecked (regenerate the
baseline with tools/make_bench_baseline.py). Baseline rows the fresh
run did not select are ignored.

Comparing across build types is meaningless (Debug runs are several
times slower than Release); when --fresh-build-type is given and
disagrees with the baseline's recorded build_type, a loud warning is
printed. The comparison still runs — the loose ratio usually absorbs
it in the Release-vs-Debug-baseline direction — but the output cannot
be trusted as a perf signal. A warning is also printed when either
file says the google-benchmark library itself was built as debug
("library_build_type" in the baseline, context.library_build_type in
the fresh JSON).

Only the Python standard library is used.
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def cpu_times(doc):
    """Return {benchmark_name: cpu_time_ns} from either file format."""
    if "raw" in doc:  # committed baseline format
        return {name: float(ns) for name, ns in doc["raw"].items()}
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        out[b["name"]] = float(b["cpu_time"]) * scale
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when fresh/baseline exceeds this "
                             "(default: 3.0)")
    parser.add_argument("--fresh-build-type", default=None,
                        help="build type of the fresh run (e.g. from "
                             "CMakeCache.txt); warns loudly when it "
                             "differs from the baseline's build_type")
    args = parser.parse_args()

    baseline_doc = load_doc(args.baseline)
    baseline = cpu_times(baseline_doc)
    fresh_doc = load_doc(args.fresh)
    fresh = cpu_times(fresh_doc)

    base_build = baseline_doc.get("build_type", "unknown")
    base_rev = baseline_doc.get("git_rev", "unknown")
    print(f"baseline: {args.baseline} "
          f"(build_type={base_build}, git_rev={base_rev})")
    if (args.fresh_build_type is not None
            and base_build != "unknown"
            and args.fresh_build_type.lower() != base_build.lower()):
        print("=" * 72, file=sys.stderr)
        print(f"WARNING: build type mismatch — fresh run is "
              f"'{args.fresh_build_type}' but the baseline was recorded "
              f"from a '{base_build}' build.", file=sys.stderr)
        print("WARNING: cross-build-type ratios are meaningless; "
              "regenerate the baseline with tools/make_bench_baseline.py "
              "from a matching build.", file=sys.stderr)
        print("=" * 72, file=sys.stderr)

    for label, flavour in (
            ("baseline", baseline_doc.get("library_build_type")),
            ("fresh run", fresh_doc.get("context", {}).get(
                "library_build_type"))):
        if flavour == "debug":
            print(f"WARNING: the {label}'s google-benchmark library was "
                  "built as debug; its timing overhead inflates small "
                  "benchmarks.", file=sys.stderr)

    missing = sorted(set(fresh) - set(baseline))
    common = sorted(set(baseline) & set(fresh))
    if not common and not missing:
        print("compare_bench: no common benchmarks between "
              f"{args.baseline} and {args.fresh}", file=sys.stderr)
        return 2

    failures = []
    for name in common:
        ratio = fresh[name] / baseline[name] if baseline[name] > 0 else 0.0
        status = "FAIL" if ratio > args.max_ratio else "ok"
        print(f"{status:4} {name:40} baseline {baseline[name]:12.1f} ns  "
              f"fresh {fresh[name]:12.1f} ns  ratio {ratio:6.2f}x")
        if ratio > args.max_ratio:
            failures.append((name, ratio))

    if failures:
        print(f"\ncompare_bench: {len(failures)} benchmark(s) slower than "
              f"{args.max_ratio}x baseline:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
    if missing:
        print(f"\ncompare_bench: {len(missing)} benchmark(s) missing from "
              f"{args.baseline}:", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
    if failures or missing:
        return 1
    print(f"\ncompare_bench: all {len(common)} benchmarks within "
          f"{args.max_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
