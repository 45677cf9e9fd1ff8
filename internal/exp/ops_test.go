package exp

import (
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/nmop"
)

// TestServeOpsSmoke runs the two-end sweep and audits it with the same
// Check the bench-smoke gate uses: the >= 5x byte savings at 10%
// selectivity and the auto mode picking the cheap path at both ends.
func TestServeOpsSmoke(t *testing.T) {
	r := ServeOpsSmoke(7)
	if bad := r.Check(); len(bad) != 0 {
		t.Fatalf("serve-ops checks failed:\n  %s\n%s", strings.Join(bad, "\n  "), r)
	}
	if r.ChannelNsPerByte <= 0 || r.RawNsPerByte <= 0 {
		t.Fatalf("calibration produced nonsense: raw=%.3f clamped=%.3f", r.RawNsPerByte, r.ChannelNsPerByte)
	}
	lo := r.Rows[0]
	if ratio := lo.HostOverDimmBytes(); ratio < 5 {
		t.Fatalf("host/dimm filter bytes %.1fx < 5x at sel=%.2f", ratio, lo.Selectivity)
	}
	// The rendered table carries the headline.
	s := r.String()
	if !strings.Contains(s, "host/dimm filter bytes") || !strings.Contains(s, "calibrated channel cost") {
		t.Fatalf("table missing headline lines:\n%s", s)
	}
}

// TestCalibrateServeOps pins the live-calibration path: the raw
// attribution figure is positive and the clamped value lands inside the
// model's trusted band, and the calibrated model still makes the right
// calls at the sweep ends.
func TestCalibrateServeOps(t *testing.T) {
	model, raw := CalibrateServeOps(7)
	if raw <= 0 {
		t.Fatalf("raw attribution cost %.4f ns/B", raw)
	}
	if model.ChannelNsPerByte < 0.05 || model.ChannelNsPerByte > 0.25 {
		t.Fatalf("calibrated cost %.4f ns/B outside the trust clamp", model.ChannelNsPerByte)
	}
	if !model.DecideFilter(nmop.ModeAuto, 512, 128, 0.10) {
		t.Fatal("calibrated model refuses to offload a 10% filter")
	}
	if model.DecideFilter(nmop.ModeAuto, 512, 128, 0.95) {
		t.Fatal("calibrated model offloads a 95% filter")
	}
}

// TestServeOpsTopoSuffix checks the "+ops" topology suffix: it parses
// composably and the curve point it produces actually carries operator
// traffic, while the suffix-free point stays ops-free.
func TestServeOpsTopoSuffix(t *testing.T) {
	ops, err := ParseTopo("mcn5+batch+ops")
	if err != nil || ops != (Topo{Fabric: "mcn5", Batch: true, Ops: true}) {
		t.Fatalf("parse wrong: %+v, %v", ops, err)
	}
	found := false
	for _, topo := range ServeTopos {
		if topo == ops {
			found = true
		}
	}
	if !found {
		t.Fatal("mcn5+batch+ops missing from ServeTopos")
	}
	r := runServe(7, ops, 100e3, nil)
	if !r.OpsOn || r.Ops.Total() == 0 {
		t.Fatalf("+ops point carried no operator traffic: on=%v total=%d", r.OpsOn, r.Ops.Total())
	}
	plain := runServe(7, mustTopo("mcn5+batch"), 100e3, nil)
	if plain.OpsOn || plain.Ops.Total() != 0 {
		t.Fatal("suffix-free point carried operator traffic")
	}
}

// TestServeFaultsOpsDegrades checks the operator workload under the DIMM
// flap: the run terminates, the flap visibly engages (degraded shard or
// operator errors), and the healthy shards keep completing operators.
func TestServeFaultsOpsDegrades(t *testing.T) {
	r := ServeFaults(7, mustTopo("mcn5+batch+ops"))
	res := r.Result
	if !res.OpsOn || res.Ops.Total() == 0 {
		t.Fatalf("faulted run carried no operator traffic: %s", res.Ops.String())
	}
	opErrs := res.Ops.MultiGet.Errors + res.Ops.Scan.Errors + res.Ops.Filter.Errors + res.Ops.RMW.Errors
	if len(r.Degraded) == 0 && res.Errors == 0 && res.Unfinished == 0 && opErrs == 0 {
		t.Fatalf("flap left no visible damage:\n%s", r)
	}
	if !strings.Contains(r.String(), ", ops") {
		t.Fatalf("rendered run does not mark the ops mix:\n%s", r)
	}
}
