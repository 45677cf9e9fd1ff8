#!/usr/bin/env sh
# Full local gate: build, vet, gofmt, and the complete test suite under
# the race detector. Pass -short (or any other go test flags) as arguments
# to trim the run; the chaos integration test skips itself in -short mode.
set -e

cd "$(dirname "$0")/.."

echo ">> go build ./..."
go build ./...

echo ">> go vet ./..."
go vet ./...

echo ">> gofmt -l"
test -z "$(gofmt -l $(git ls-files '*.go'))"

# The code-hygiene gates (every internal/ function has a program caller,
# every internal/ struct field a reader) load the module with go/types in
# a few seconds; run them before the race passes below, which take
# minutes, so dead code fails fast.
echo ">> go test -run 'TestExportsHaveCallers|TestFieldsHaveReaders' ."
go test -run 'TestExportsHaveCallers|TestFieldsHaveReaders' .

# The paper's figures and Table III are pinned exactly by two goldens.
# Without the race detector they take seconds, so a drifted figure fails
# here instead of after the 30-minute race pass below.
echo ">> go test -run 'TestFigureGolden|TestTable3Golden' ./internal/exp"
go test -run 'TestFigureGolden|TestTable3Golden' ./internal/exp

# The exactness gates: every charge-sequence chain against the process
# form it replaced (cpu's charges, interrupts and locks, TCP's socket
# calls and segments, the IP frame chains, mcnt, the node's copy, the
# core drivers, the 10GbE NIC and switch) and the scheduler's
# differential harness against the reference heap. They take about a
# second without the race detector, so a chain that moves an event fails
# here, not after the race pass.
echo ">> go test -run 'Match(es)?ProcessForms?|MatchesExec(For|While)|Differential' (chains, scheduler)"
go test -run 'Match(es)?ProcessForms?|MatchesExec(For|While)|Differential' \
    ./internal/cpu ./internal/netstack ./internal/mcnt ./internal/core ./internal/node ./internal/ethdev ./internal/sim

# Ten seconds of fuzzing the timer wheel against the reference heap, from
# the committed corpus: new operation streams reach every wheel level, the
# top one at the end of the clock included.
echo ">> go test -run '^\$' -fuzz FuzzTimerWheel -fuzztime 10s ./internal/sim"
go test -run '^$' -fuzz FuzzTimerWheel -fuzztime 10s ./internal/sim

# Ten seconds of fuzzing the Internet checksum kernel against the 16-bit
# reference loop, from the committed corpus and the seeds at its word and
# block edges: chained parts, any seed, lengths past 128 KiB.
echo ">> go test -run '^\$' -fuzz FuzzChecksumMatchesReference -fuzztime 10s ./internal/netstack"
go test -run '^$' -fuzz FuzzChecksumMatchesReference -fuzztime 10s ./internal/netstack

# Ten seconds of fuzzing mcnt's go-back-N recovery, from the committed
# corpus of acks that land mid-resend-burst: lossy streams with any seed,
# loss rate, send and receive size and direction mix deliver exact bytes
# and end with clean accounting.
echo ">> go test -run '^\$' -fuzz FuzzGoBackNUnderLoss -fuzztime 10s ./internal/mcnt"
go test -run '^$' -fuzz FuzzGoBackNUnderLoss -fuzztime 10s ./internal/mcnt

# Every non-test function runs somewhere in the suite, apart from the
# named fillers in scripts/never-run.txt: the list of 0.0% functions under
# a module-wide coverage profile must equal that allowlist, so a new
# function no test reaches fails here, and so does a stale entry.
echo ">> go test -coverpkg=./internal/...,. ./... (never-run functions)"
prof="$(mktemp)"
trap 'rm -f "$prof" "$prof.zero" "$prof.allow"' EXIT
go test -coverpkg=./internal/...,. -coverprofile="$prof" ./...
go tool cover -func="$prof" |
    awk '$NF == "0.0%" { sub(/^github.com\/mcn-arch\/mcn\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
    sort >"$prof.zero"
sed -e 's/#.*//' -e '/^ *$/d' scripts/never-run.txt | awk '{ print $1, $2 }' | sort >"$prof.allow"
if ! diff "$prof.allow" "$prof.zero"; then
    echo "never-run: the 0.0% functions (>) differ from scripts/never-run.txt (<)"
    exit 1
fi

# Targeted race gate on the sim kernel, the CPU model, the MCN drivers
# and DRAM model, the node's bulk-copy chain, the TCP/IP stack, the 10GbE
# NIC, the serving tier, its admission plane, the replication plane, the
# observability plane (spans, registry and the windowed timeline/burn
# monitor), the mcnt transport and the near-memory operator layer first:
# the kernel's coroutine switches between the event loop and process
# bodies (including the in-place resumes that end a Transfer, a
# Stack.Copy or a charge-sequence chain, and the in-place starts of
# interrupt handlers), the IRQ, which is a callback state machine that
# shares Cores with processes, the core/dram/node callback state machines
# that share Resources with those processes, the frame chains that carry
# a segment through TCP, IP and a driver's setup charges (and on receive
# through IP into the socket lock) in kernel callbacks, the socket
# buffers that TCP's and mcnt's Send and Recv chains fill and drain from
# kernel callbacks, waits included — the send and mcnt byte rings and
# TCP's receive queue of held pool frames, recycled as reads consume them
# (with the stack's stream-integrity fuzz seeds) — mcnt's frame chains,
# which stamp and transmit under the link's TX lock and deliver from the
# drivers' receive chains, and its resend queue of pool frames, recycled
# by acks that land from another core mid-burst, the
# NIC's TX-engine, NAPI and switch-port callback chains and its napi
# delivery process, which emit through a frame tap shared with the stack
# taps (Table III's recorder) and hand pooled wire frames from one
# stack's transmit to another's receive, the SRAM rings,
# whose slots hold the frame buffers one process pushes and another
# pops, and the concurrency-heavy breaker/loadgen/forwarder/tracer/
# retransmit interplay mean a race in these packages fails fast before
# the full suite spins up.
echo ">> go test -race ./internal/sim ./internal/cpu ./internal/core ./internal/dram ./internal/sram ./internal/node ./internal/netstack ./internal/ethdev ./internal/admit ./internal/serve ./internal/replica ./internal/obs ./internal/mcnt ./internal/nmop"
go test -race ./internal/sim ./internal/cpu ./internal/core ./internal/dram ./internal/sram ./internal/node ./internal/netstack ./internal/ethdev ./internal/admit ./internal/serve ./internal/replica ./internal/obs ./internal/mcnt ./internal/nmop

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
