#!/usr/bin/env sh
# Per-package coverage gate: runs the suite in -short mode with coverage
# and fails if any package regresses below its floor. Floors sit a few
# points under the levels the suite actually reaches so routine churn
# passes but deleting a test file does not. This pass also executes every
# committed fuzz seed corpus (native Go fuzz targets run their corpora as
# ordinary tests).
set -e

cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

echo ">> go test -short -cover ./..."
if ! go test -short -cover ./... >"$out" 2>&1; then
    cat "$out"
    echo "cover: tests failed"
    exit 1
fi
cat "$out"

awk '
BEGIN {
    pre = "github.com/mcn-arch/mcn"
    f[pre] = 74
    f[pre "/cmd/mcn-experiments"] = 80
    f[pre "/cmd/mcn-serve"] = 70
    f[pre "/cmd/mcnsim"] = 89
    f[pre "/internal/admit"] = 90
    f[pre "/internal/cluster"] = 72
    f[pre "/internal/core"] = 77
    f[pre "/internal/cpu"] = 85
    f[pre "/internal/dram"] = 89
    f[pre "/internal/energy"] = 97
    f[pre "/internal/ethdev"] = 86
    f[pre "/internal/exp"] = 82
    f[pre "/internal/faults"] = 76
    f[pre "/internal/kvstore"] = 83
    f[pre "/internal/mapreduce"] = 89
    f[pre "/internal/mcnt"] = 85
    f[pre "/internal/memmap"] = 88
    f[pre "/internal/mpi"] = 84
    f[pre "/internal/netstack"] = 84
    f[pre "/internal/nmop"] = 85
    f[pre "/internal/node"] = 81
    f[pre "/internal/npb"] = 94
    f[pre "/internal/obs"] = 85
    f[pre "/internal/replica"] = 85
    f[pre "/internal/serve"] = 81
    f[pre "/internal/sim"] = 94
    f[pre "/internal/sram"] = 88
    f[pre "/internal/stats"] = 83
    f[pre "/internal/workloads"] = 92
}
$1 == "ok" && /coverage:/ {
    pct = ""
    for (i = 1; i <= NF; i++) {
        if ($i == "coverage:") { pct = $(i + 1); sub(/%/, "", pct) }
    }
    if ($2 in f && pct != "") {
        seen[$2] = 1
        if (pct + 0 < f[$2]) {
            printf "cover: FAIL %-45s %5.1f%% < floor %d%%\n", $2, pct, f[$2]
            bad = 1
        } else {
            printf "cover: ok   %-45s %5.1f%% (floor %d%%)\n", $2, pct, f[$2]
        }
    }
}
END {
    for (p in f) {
        if (!(p in seen)) {
            printf "cover: FAIL %s reported no coverage (package gone or tests deleted?)\n", p
            bad = 1
        }
    }
    exit bad
}
' "$out"

echo "cover: OK"
