#!/usr/bin/env sh
# Full local gate: build, vet, and the complete test suite under the race
# detector. Pass -short (or any other go test flags) as arguments to trim
# the run; the chaos integration test skips itself in -short mode.
set -e

cd "$(dirname "$0")/.."

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

# Targeted race gate on the sim kernel, the MCN drivers and DRAM model,
# the TCP/IP stack, the serving tier, its admission plane, the
# replication plane, the observability plane (spans, registry and the
# windowed timeline/burn monitor), the mcnt transport and the near-memory
# operator layer first: the kernel's coroutine switches between the event
# loop and process bodies, the core/dram callback state machines that
# share Resources with those processes, the socket-buffer rings that TCP
# and mcnt processes fill and drain around their CPU-charge parks (with
# the stack's stream-integrity fuzz seeds), and the concurrency-heavy
# breaker/loadgen/forwarder/tracer/retransmit interplay mean a race in
# these packages fails fast before the full suite spins up.
echo ">> go test -race ./internal/sim ./internal/core ./internal/dram ./internal/netstack ./internal/admit ./internal/serve ./internal/replica ./internal/obs ./internal/mcnt ./internal/nmop"
go test -race ./internal/sim ./internal/core ./internal/dram ./internal/netstack ./internal/admit ./internal/serve ./internal/replica ./internal/obs ./internal/mcnt ./internal/nmop

# The continuous-telemetry suite crosses package lines (serve hooks, exp
# A/B, the root chaos replay gate), so race it explicitly as well: these
# -run filters add the timeline tests that live outside the packages
# above at a few seconds' cost.
echo ">> go test -race -run 'Timeline|BurnMonitor' ./internal/exp ."
go test -race -run 'Timeline|BurnMonitor' ./internal/exp .

# The long simulation packages (internal/exp's figure and serving sweeps,
# the core driver suite) multiply by the race detector's overhead; on a
# loaded machine they can brush go test's default 10-minute per-binary
# timeout, so the full race pass gets an explicit generous one.
echo ">> go test -race -timeout 30m $* ./..."
go test -race -timeout 30m "$@" ./...

./scripts/cover.sh

echo "check: OK"
