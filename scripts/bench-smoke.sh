#!/usr/bin/env sh
# Bench smoke: a tiny deterministic slice of the serving benchmark, fast
# enough for the local gate. It re-runs one low and one mid rate across
# every topology, the flap A/Bs and the operator smoke sweep against the
# committed artifacts, and runs a few single points with the
# observability plane on, so a regression in the bench pipeline —
# topology construction, suffix parsing, any plane, JSON rendering — fails
# here instead of in the full scripts/bench.sh artifact run.
#
# Usage: scripts/bench-smoke.sh [seed]   (default 42)
set -e

cd "$(dirname "$0")/.."

SEED="${1:-42}"

# One build for the dozen invocations below; everything the script writes
# lives in the same directory and goes with it.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/mcn-serve" ./cmd/mcn-serve
SERVE="$TMP/mcn-serve"

# The serving drift gate: regenerate every section BENCH_serve.json
# records — the curves (on a two-rung ladder here), the qps-at-SLO
# headline, the admission and replication flap A/Bs, the operator sweep
# with its >=5x byte-savings and auto-decision claims — and fail naming
# each JSON path that drifted. The curve check runs with ops off, so the
# committed curves staying point-for-point is also the byte-identity gate
# for a config that never heard of the operator subsystem.
echo ">> mcn-serve -check BENCH_serve.json -rates 200000,800000 -seed $SEED"
"$SERVE" -check BENCH_serve.json -rates 200000,800000 -seed "$SEED"

echo ">> mcn-serve -topo mcn5+batch+admit -rate 200000 -seed $SEED -json"
"$SERVE" -topo mcn5+batch+admit -rate 200000 -seed "$SEED" -json -out "$TMP/plain.json"

# mcnt transport guard: one low-rate point on the mcnt topology with the
# observability plane on must report telemetry byte-identical to the
# untraced run (the frame correlator observes, never perturbs), covering
# the transport swap end to end — dial/accept over the fabric, framing,
# credit returns — at smoke cost.
echo ">> mcn-serve -topo mcn5+batch+mcnt -rate 200000 -seed $SEED (transport + zero-perturbation guard)"
"$SERVE" -topo mcn5+batch+mcnt -rate 200000 -seed "$SEED" -json -out "$TMP/mcnt-plain.json"
"$SERVE" -topo mcn5+batch+mcnt -rate 200000 -seed "$SEED" -json \
	-trace "$TMP/mcnt-trace.json" -out "$TMP/mcnt-traced.json"
cmp "$TMP/mcnt-plain.json" "$TMP/mcnt-traced.json"
test -s "$TMP/mcnt-trace.json"

# Trace-overhead guard: the same point with the observability plane on
# must report byte-identical telemetry (tracing charges no simulated
# time), and the Perfetto/metrics artifacts must be written and non-empty.
echo ">> mcn-serve -topo mcn5+batch+admit ... -trace/-metrics (zero-perturbation guard)"
"$SERVE" -topo mcn5+batch+admit -rate 200000 -seed "$SEED" -json \
	-trace "$TMP/trace.json" -metrics "$TMP/metrics.json" -out "$TMP/traced.json"
cmp "$TMP/plain.json" "$TMP/traced.json"
test -s "$TMP/trace.json"
test -s "$TMP/metrics.json"

# Timeline zero-perturbation guard: attaching the windowed timeline must
# not move a single simulated event either — the timeline-on run's
# telemetry is byte-identical to the plain run — and the timeline
# artifact must be written, non-empty, and carry its windows array.
echo ">> mcn-serve -topo mcn5+batch+admit ... -timeline (timeline zero-perturbation guard)"
"$SERVE" -topo mcn5+batch+admit -rate 200000 -seed "$SEED" -json \
	-timeline "$TMP/timeline.json" -out "$TMP/timelined.json"
cmp "$TMP/plain.json" "$TMP/timelined.json"
test -s "$TMP/timeline.json"
grep -q '"windows"' "$TMP/timeline.json"

cat "$TMP/plain.json"

# One "+ops" point proves the suffix plumbing carries operator traffic
# end to end.
echo ">> mcn-serve -topo mcn5+batch+ops -rate 200000 -seed $SEED -json (operator traffic smoke)"
"$SERVE" -topo mcn5+batch+ops -rate 200000 -seed "$SEED" -json -out "$TMP/ops.json"
grep -q '"ops"' "$TMP/ops.json"

# Event-budget drift gate: regenerate all 9 points of the committed
# BENCH_wallclock.json. Every kernel counter (events, pushes, switches,
# ...) must match exactly — a mismatch means the event stream itself
# changed and the artifact needs regenerating (scripts/bench.sh).
echo ">> mcn-serve -check BENCH_wallclock.json -seed $SEED"
"$SERVE" -check BENCH_wallclock.json -seed "$SEED"

echo "bench-smoke: OK"
