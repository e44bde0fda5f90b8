#!/usr/bin/env bash
# Regenerates every table and figure of the paper and archives the raw
# per-matrix data as CSV. Pass a scale factor to grow toward paper scale
# (default: the benches' tuned defaults; 1.0 approaches the paper's sizes
# and takes hours on a laptop).
#
#   ./scripts/run_all_experiments.sh [results_dir] [extra bench args...]
#
# The extra args go to every harness, and a harness refuses a flag it does
# not read, so pass only flags they all take: --scale, --threads, --seed.
set -euo pipefail

BUILD=${BUILD:-build}
OUT=${1:-results}
shift || true
mkdir -p "$OUT"

run() {
    local name=$1
    shift
    echo "=== $name $* ==="
    "$BUILD/bench/$name" --csv "$OUT/$name.csv" "$@" 2>"$OUT/$name.log" \
        | tee "$OUT/$name.txt"
}

# Table 1 has no per-matrix CSV.
"$BUILD/bench/bench_table1" "$@" 2>"$OUT/bench_table1.log" \
    | tee "$OUT/bench_table1.txt"
run bench_fig2 "$@"
run bench_fig3 "$@"
run bench_fig4 "$@"
run bench_fig5 "$@"
run bench_table2 "$@"
run bench_table3 "$@"
"$BUILD/bench/bench_overhead" "$@" | tee "$OUT/bench_overhead.txt"
"$BUILD/bench/bench_ablation" "$@" | tee "$OUT/bench_ablation.txt"

echo "all outputs in $OUT/"
