#!/usr/bin/env bash
# CI perf smoke: run the scheduler microbenchmarks AND the end-to-end
# simulation-throughput benchmarks on a Release build, and fail on crash
# or on any benchmark slower than 3x its committed baseline
# (BENCH_sched_speed.json / BENCH_sim_throughput.json). Complexity
# regressions, not machine noise, are the target — see
# tools/compare_bench.py. Both comparisons pass the build type read from
# the build tree so compare_bench.py can warn loudly on a
# Release-vs-Debug mismatch. A memory gate then compares the repository
# benchmark's (perfbench/) peak RSS on the n=256 VOQ workload against the
# 16-port sweep's, which sits at the process floor. Last, every perfbench
# workload runs once untraced and once traced, and any failed correctness
# check fails the script.
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)

BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
    "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
BUILD_TYPE=${BUILD_TYPE:-unknown}

run_gate() {
    local binary=$1 baseline=$2 filter=$3 min_time=$4
    if [[ ! -x "$binary" ]]; then
        echo "perf_smoke: $binary not found; build the Release tree first" >&2
        exit 2
    fi
    local fresh
    fresh=$(mktemp --suffix=.json)
    # shellcheck disable=SC2064  # expand $fresh now, not at trap time
    trap "rm -f '$fresh'" RETURN
    "$binary" --benchmark_filter="$filter" \
        --benchmark_min_time="$min_time" --json "$fresh"
    python3 "$REPO_ROOT/tools/compare_bench.py" "$baseline" "$fresh" \
        --max-ratio 3.0 --fresh-build-type "$BUILD_TYPE"
}

# Scheduler-level: schedule() microbenchmarks at n in {16, 64}, plus
# central and distributed LCF and iSLIP at n=256 on sparse matrices
# (density 0.02, about what SwitchSim presents at load 0.9): the three
# schedulers of perfbench's voq_n256_uniform workload at its radix and
# density.
run_gate "$BUILD_DIR/bench/bench_sched_speed" \
    "$REPO_ROOT/BENCH_sched_speed.json" \
    '/(16|64)$|^BM_(Lcf(Central|Dist)|Islip)Sparse/256$' 0.05

# End-to-end: slots/sec at n in {16, 64}, load 0.9, plus the uniform
# n=256 load-0.9 rows (each runs its own 2.5 s minimum, 10 or more
# ~0.1 s iterations, whatever the flag says, which google-benchmark
# appends to the name as /min_time:2.500; the rest of the n=256 grid is
# too slow for a smoke job, and the committed baseline still records
# it), plus the Clint bulk and quick channels. The n=256 rows gate
# the per-slot request-matrix work that only shows at that radix (a
# column rebuild per slot cost up to a third of it). The ilqf rows
# (ilqf/uniform/{16,256}/90, matched by the first two alternatives) gate
# the VOQ-length bookkeeping only iLQF reads: an O(n^2) per-phase length
# gather made n=256 2.7x slower.
# BM_QuickChannel/256 is the gate against quick-channel arbitration that
# is quadratic in hosts: a hosts^2 scan there costs 65k iterations per
# slot. The {wfront,pim}/uniform/16/{20,90} rows (the 90s matched by the
# first alternative) gate the 16-port slot's fixed costs: the wavefront
# sweeping rows with no request at load 0.2, and a division per random
# draw in PIM.
run_gate "$BUILD_DIR/bench/bench_sim_throughput" \
    "$REPO_ROOT/BENCH_sim_throughput.json" \
    '/(16|64)/90$|/(wfront|pim)/uniform/16/20$|/uniform/256/90/|^BM_(Quick|Bulk)Channel/' 0.05

# Memory: VOQ storage must follow buffered packets, not ports². The n=256
# VOQ workload may peak at most 10 MB above the 16-port sweep (binary,
# thread pool and libraries only); one ring per (input, output) pair put
# it 45.7 MB above.
peak_rss_mb() {
    python3 "$REPO_ROOT/perfbench/run.py" --workload "$1" --seconds 1 \
        --trace 0 | tail -n 1 | python3 -c \
        'import json, sys; print(json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"])'
}
VOQ_RSS=$(peak_rss_mb voq_n256_uniform)
FLOOR_RSS=$(peak_rss_mb fig12_n16_sweep)
python3 - "$VOQ_RSS" "$FLOOR_RSS" <<'PY'
import sys
voq, floor = float(sys.argv[1]), float(sys.argv[2])
gap = voq - floor
print(f"perf_smoke: peak_rss_mb voq_n256_uniform {voq:.1f} - "
      f"fig12_n16_sweep {floor:.1f} = {gap:.1f} MB (limit 10)")
sys.exit(1 if gap > 10.0 else 0)
PY

# Correctness: every perfbench workload for 1 s, untraced and traced.
# The traced runs wrap the scheduler and traffic virtuals in perfbench's
# timing decorators, and clint_faulted checks that one seed gives one
# result. run.py exits 1 when any run reports correct=false.
python3 "$REPO_ROOT/perfbench/run.py" --workload all --seconds 1 --trace 1
