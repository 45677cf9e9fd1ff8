GO ?= go

.PHONY: build test check test-short cover bench bench-smoke bench-wallclock

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# Full gate: build + vet + race-enabled tests + coverage floors
# (see scripts/check.sh), then the tiny serving-bench smoke sweep.
check:
	./scripts/check.sh
	./scripts/bench-smoke.sh

# Coverage gate alone: short-mode suite with per-package floors; also
# replays the committed fuzz seed corpora (see scripts/cover.sh).
cover:
	./scripts/cover.sh

# Same gate with the long integration runs (chaos, NPB classes) trimmed.
test-short:
	./scripts/check.sh -short

# Serving benchmark: deterministic latency-vs-load sweep at a fixed seed,
# writes BENCH_serve.json (qps at the p99 SLO per topology plus the
# DIMM-flap admission A/B).
bench:
	./scripts/bench.sh

# Tiny deterministic slice of the serving benchmark (two rates, one
# admitted point); also runs as part of `make check`.
bench-smoke:
	./scripts/bench-smoke.sh

# Simulator event budget alone: the kernel's deterministic counters over
# the canonical topologies, written to BENCH_wallclock.json. Host speed is
# measured by `bash benchmark/run.sh`.
bench-wallclock:
	$(GO) run ./cmd/mcn-serve -wallbench -out BENCH_wallclock.json
	$(GO) run ./cmd/mcn-serve -check BENCH_wallclock.json
