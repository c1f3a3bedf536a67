#!/usr/bin/env python3
"""A/B the repository benchmark against an earlier revision.

Usage:
    tools/ab_perfbench.py --base REV [--pairs N] [--workload W ...]
                          [--held-out]

Exports REV's committed files (git archive) into a temporary directory
and runs perfbench/run.py there and in the working tree (the head),
N alternating pairs per workload: odd pairs run the base first, even
pairs the head first, so a drift in host load hits both sides alike.
Every measured run uses run.py's defaults, so its length is
BENCHMARK.json's run_seconds. --held-out passes run.py's --held-out to
every measured run, so both sides run the seed never used while
tuning. Each side builds its own perfbench from its own sources
(run.py's .bench_build/); a 1-second warm-up run on each side pays for
the build and is not measured.

For every end-to-end metric in BENCHMARK.json it prints each side's
median, the base's IQR/median, the head/base ratio of every pair, how
many pairs the head won (in the metric's "better" direction), the
two-sided sign-test p-value of those wins over the pairs that were not
ties, and the median change against the metric's bound, marking a metric
"unresolved" when the base's spread is wider than the bound. It then
says whether the model outputs (mean delay, p99 delay, goodput) were
bit-identical in every pair, and how many runs failed on each side.

Exits 1 when a run reported a failed check, printed no result or
timed out, or when a median is worse than its bound; 0 otherwise.
Only the Python standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Outputs of the model, not of the host: a change that keeps behaviour
# must leave them bit-identical.
MODEL_OUTPUTS = ["mean_delay_slots", "p99_delay_slots", "goodput"]
RUN_TIMEOUT_S = 1800  # the first run of a side builds perfbench


def export(rev: str, into: pathlib.Path) -> None:
    """Write `rev`'s committed files into `into`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit(f"ab_perfbench: cannot export {rev}")


def run(side: pathlib.Path, workload: str, extra: tuple[str, ...] = ()):
    """One run; its result JSON, or None if it printed none or timed out."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             *extra],
            cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"ab_perfbench: {side} {workload} timed out\n")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of `wins` against `losses` (ties left
    out): the chance that fair coin flips split at least this unevenly."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def report(workload: str, pairs: list[tuple[dict, dict]],
           declared: list[dict]) -> bool:
    """Print one workload's comparison; False if a median is over bound."""
    ok = True
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':26s} {'base med':>12s} {'head med':>12s} "
          f"{'base iqr/med':>12s} {'wins':>6s} {'sign p':>7s} {'change':>8s} "
          f"{'bound':>6s}")
    for metric in declared:
        name = metric["name"]
        have = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                for b, h in pairs
                if name in b["metrics"] and name in h["metrics"]]
        if not have:
            continue
        base = [b for b, _ in have]
        head = [h for _, h in have]
        q1, base_med, q3 = quartiles(base)
        head_med = statistics.median(head)
        higher = metric["better"] == "higher"
        wins = sum((h > b) if higher else (h < b) for b, h in have)
        losses = sum((h < b) if higher else (h > b) for b, h in have)
        # Relative change of the median, positive when the head is better.
        change = 0.0
        if base_med:
            change = (head_med - base_med) / abs(base_med)
            if not higher:
                change = -change
        spread = (q3 - q1) / abs(base_med) if base_med else 0.0
        # A spread wider than the bound cannot tell "unchanged" from a
        # regression, unless every head run beats every base run.
        separated = (min(head) > max(base)) if higher else (max(head) < min(base))
        verdict = ""
        if change < -metric["bound"]:
            verdict = "OVER"
            ok = False
        elif spread > metric["bound"] and not separated:
            verdict = "unresolved"
        print(f"  {name:26s} {base_med:12.6g} {head_med:12.6g} "
              f"{spread:12.4f} {wins:>3d}/{len(have):<2d} "
              f"{sign_test(wins, losses):7.4f} {change:+8.4f} "
              f"{metric['bound']:6.3f} {verdict}")
        ratios = " ".join(f"{h / b:.3f}" if b else "-" for b, h in have)
        print(f"    head/base per pair: {ratios}")
    identical = all(
        b["metrics"][name]["value"] == h["metrics"][name]["value"]
        for b, h in pairs for name in MODEL_OUTPUTS
        if name in b["metrics"] and name in h["metrics"])
    print(f"  model outputs ({', '.join(MODEL_OUTPUTS)}) bit-identical in "
          f"every pair: {'yes' if identical else 'NO'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--held-out", action="store_true",
                        help="measure on run.py's held-out seed")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or WORKLOADS
    extra = ("--held-out",) if args.held_out else ()

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ab_perfbench-"))
    try:
        base = scratch / "base"
        base.mkdir()
        export(args.base, base)
        sides = {"base": base, "head": ROOT}
        failed = {"base": 0, "head": 0}
        for label, side in sides.items():
            print(f"building {label} ({side})", file=sys.stderr, flush=True)
            if run(side, workloads[0], ("--seconds", "1")) is None:
                sys.exit(f"ab_perfbench: {label} does not build or run")

        ok = True
        for workload in workloads:
            pairs = []
            for k in range(args.pairs):
                order = ["base", "head"] if k % 2 == 0 else ["head", "base"]
                results = {}
                for label in order:
                    result = run(sides[label], workload, extra)
                    if result is None:
                        failed[label] += 1
                    else:
                        failed[label] += int(result["failed"])
                        results[label] = result
                print(f"{workload} pair {k + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
                if len(results) == 2:
                    pairs.append((results["base"], results["head"]))
            if pairs:
                ok &= report(workload, pairs, SPEC["end_to_end"])
            else:
                ok = False
        # Failed checks the runs reported, plus runs that printed no result.
        print(f"\nfailed: base {failed['base']}, head {failed['head']}")
        return 0 if ok and not any(failed.values()) else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
