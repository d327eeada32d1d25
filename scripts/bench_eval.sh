#!/bin/sh
# Measure candidate-evaluation throughput (the evaluation engine's headline
# number), serial fault-simulation step throughput (the simulator's
# headline number), and the synthetic scaling sweep, recording them in
# BENCH_eval.json, BENCH_sim.json, and BENCH_scale.json so the performance
# trajectory is tracked across PRs. Pass --smoke for a fast
# CI-sized run. Validation and the regression gate live in check_bench.sh —
# this script only refreshes the committed baselines.
set -eu

cd "$(dirname "$0")/.."

mode=""
if [ "${1:-}" = "--smoke" ]; then
    mode="--smoke"
elif [ "$#" -gt 0 ]; then
    echo "usage: $0 [--smoke]" >&2
    exit 2
fi

# Provenance is caller-supplied (the binaries never read the clock or the
# repo themselves); default it here so refreshed baselines record where and
# when they were measured.
GATEST_GIT_REV="${GATEST_GIT_REV:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
GATEST_BENCH_TIMESTAMP="${GATEST_BENCH_TIMESTAMP:-$(date -u +%Y-%m-%dT%H:%M:%SZ)}"
export GATEST_GIT_REV GATEST_BENCH_TIMESTAMP

cargo build --release -p gatest-bench --bin bench_eval --bin bench_sim --bin bench_scale --bin bench_serve
target/release/bench_eval $mode > BENCH_eval.json
echo "wrote BENCH_eval.json:" >&2
cat BENCH_eval.json
target/release/bench_sim $mode > BENCH_sim.json
echo "wrote BENCH_sim.json:" >&2
cat BENCH_sim.json
target/release/bench_scale $mode > BENCH_scale.json
echo "wrote BENCH_scale.json:" >&2
cat BENCH_scale.json
target/release/bench_serve $mode > BENCH_serve.json
echo "wrote BENCH_serve.json:" >&2
cat BENCH_serve.json
scripts/check_bench.sh --validate >&2
