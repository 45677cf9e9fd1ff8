#!/usr/bin/env sh
# Serving benchmark: run the latency-vs-throughput sweep at a fixed seed
# and write BENCH_serve.json (qps at the p99 SLO per topology, plus the
# full curves). The sweep is deterministic — same seed, same JSON, bit for
# bit — so the artifact is diffable across commits.
#
# Usage: scripts/bench.sh [seed]   (default 42)
set -e

cd "$(dirname "$0")/.."

SEED="${1:-42}"
OUT="BENCH_serve.json"

echo ">> mcn-serve -bench -seed $SEED -out $OUT"
go run ./cmd/mcn-serve -bench -seed "$SEED" -out "$OUT"

echo ">> $OUT"
cat "$OUT"

# Simulator event budget: the kernel's counters (events, pushes,
# switches, spawns, ...) over the canonical topologies, all deterministic
# for the seed. Host speed is benchmark/run.sh's job, not this file's.
WALLOUT="BENCH_wallclock.json"
echo ">> mcn-serve -wallbench -seed $SEED -out $WALLOUT"
go run ./cmd/mcn-serve -wallbench -seed "$SEED" -out "$WALLOUT"

echo ">> $WALLOUT"
go run ./cmd/mcn-serve -check "$WALLOUT" -seed "$SEED"
