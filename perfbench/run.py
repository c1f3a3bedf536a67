#!/usr/bin/env python3
"""Build and run the LCF switch benchmark.

Contract mode (one workload, result JSON as the last stdout line):

    python3 perfbench/run.py --workload voq_n256_uniform --seed 1 --seconds 10 --trace 0

Other modes:

    --workload all       run every workload, print each metric with its unit;
                         exit 1 if any correctness check failed
    --steady K           run each selected workload K times on seeds
                         seed..seed+K-1 and print every end-to-end metric's
                         median, quartiles and IQR/median against its bound
    --held-out           replace the seed with one never used while tuning

The program is built from ../src with CMake into .bench_build/perfbench at
the root of the checkout; see perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["voq_n256_uniform", "fig12_n16_sweep", "clint_faulted"]
# Seeds 1..10 were used while tuning the benchmark; this one was not.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def die(message: str, code: int = 2) -> None:
    log(f"run.py: {message}")
    sys.exit(code)


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        die(f"cannot read {path}: {error}")
    return {}


def build() -> None:
    if not (ROOT / "src" / "sim").is_dir():
        die(f"no simulator sources under {ROOT / 'src'}; nothing to benchmark")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    for command in steps:
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout + proc.stderr)
            die(f"build step failed: {' '.join(command)}")


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in {".cpp", ".hpp"}:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def command(workload: str, seed: int, seconds: int, trace: bool) -> list[str]:
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--git-rev", git_rev(), "--src-digest", src_digest()]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.csv")]
    return cmd


def run_captured(workload: str, seed: int, seconds: int, trace: bool):
    """Run once; return (manifest, result) with result None on failure."""
    proc = subprocess.run(command(workload, seed, seconds, trace),
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    manifest, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith('{"manifest"'):
            manifest = json.loads(line)["manifest"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    if result is None:
        log(f"run.py: {workload} seed {seed} printed no result "
            f"(exit {proc.returncode})")
    return manifest, result


def check_names(result: dict, declared: list[dict], label: str) -> bool:
    got = set(result["metrics"])
    want = {m["name"] for m in declared}
    if got != want:
        log(f"run.py: {label}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - got)}, extra {sorted(got - want)}")
        return False
    return True


def run_all(workloads: list[str], seed: int, seconds: int, trace: bool) -> int:
    bench = spec()
    ok = True
    modes = [False, True] if trace else [False]
    for workload in workloads:
        for traced in modes:
            manifest, result = run_captured(workload, seed, seconds, traced)
            if result is None:
                ok = False
                continue
            declared = bench["per_layer" if traced else "end_to_end"]
            ok &= check_names(result, declared, workload)
            ok &= bool(result["correct"])
            if manifest:
                print(f"# manifest {json.dumps(manifest)}")
            kind = "per-layer (traced)" if traced else "end-to-end"
            print(f"{workload}  seed {seed}  {kind}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:40s} {metric['value']:>18.6g} {metric['unit']}")
    return 0 if ok else 1


def run_steady(workloads: list[str], seed: int, seconds: int, runs: int) -> int:
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        manifest = None
        for k in range(runs):
            manifest, result = run_captured(workload, seed + k, seconds, False)
            if result is None:
                ok = False
                continue
            ok &= check_names(result, bench["end_to_end"], workload)
            ok &= bool(result["correct"])
            for name in values:
                if name in result["metrics"]:
                    values[name].append(result["metrics"][name]["value"])
        if manifest:
            print(f"# manifest {json.dumps(manifest)}")
        print(f"{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        print(f"  {'metric':26s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = "ok" if spread <= bound / 3 else (
                "wide" if spread <= bound else "OVER")
            if name == "setup_s":
                verdict += " (spread not gated)"
            print(f"  {name:26s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.3f} {verdict}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement time per run (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args()

    if args.workload != "all" and args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)} or all")
    seconds = args.seconds if args.seconds is not None else int(spec()["run_seconds"])
    seed = HELD_OUT_SEED if args.held_out else args.seed
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    build()
    if args.steady:
        if args.steady < 2:
            die("--steady needs at least 2 runs")
        return run_steady(workloads, seed, seconds, args.steady)
    if args.workload == "all":
        return run_all(workloads, seed, seconds, bool(args.trace))
    # Contract mode: the program's own stdout, last line the result.
    try:
        return subprocess.run(command(args.workload, seed, seconds, bool(args.trace)),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return 1


if __name__ == "__main__":
    sys.exit(main())
