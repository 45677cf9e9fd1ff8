#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the Go toolchain and the benchmark write (build cache, temp
# files, telemetry, the traced pass's span file under $TMPDIR) is kept
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. In a directory without the repository's go.mod the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local TMPDIR="$out/tmp"
go build -o "$out/mcnbench" ./benchmark
exec "$out/mcnbench" "$@"
