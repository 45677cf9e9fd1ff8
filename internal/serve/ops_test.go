package serve

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/sim"
)

// opsConfig is the shared base run for the operator tests: open loop at
// a rate the two-DIMM MCN server handles comfortably, with every family
// in the mix.
func opsConfig(seed uint64, mode nmop.Mode, sel float64) Config {
	return Config{
		Seed:       seed,
		Workload:   Workload{Keys: 2000, ValueBytes: 128},
		RatePerSec: 100e3,
		Ops: OpsConfig{
			On:            true,
			Selectivity:   sel,
			ReturnMatches: true,
			Mode:          mode,
		},
	}
}

// TestOpsOffByteIdentical pins the gate the whole integration hangs on:
// a run with the Ops config present-but-disabled is byte-identical to
// one that never mentions it. Every operator draw, hook, and counter
// must sit behind Ops.On for this to hold.
func TestOpsOffByteIdentical(t *testing.T) {
	mk := func(cfg Config) string {
		return runOnce(t, func(k *sim.Kernel) Config { return mcnBench(k, 2, cfg) }).String()
	}
	plain := mk(Config{Seed: 7, Workload: Workload{Keys: 1500}, RatePerSec: 90e3})
	gated := mk(Config{Seed: 7, Workload: Workload{Keys: 1500}, RatePerSec: 90e3,
		// Everything set except On: none of it may leak into the run.
		Ops: OpsConfig{Selectivity: 0.5, ReturnMatches: true, Mode: nmop.ModeDimm},
	})
	if plain != gated {
		t.Fatalf("disabled ops config perturbed the run:\n--- plain ---\n%s\n--- gated ---\n%s", plain, gated)
	}
}

func TestOpsMixRuns(t *testing.T) {
	res := runOnce(t, func(k *sim.Kernel) Config {
		return mcnBench(k, 2, opsConfig(11, nmop.ModeAuto, 0.10))
	})
	if !res.OpsOn {
		t.Fatal("OpsOn not set")
	}
	if res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("errors=%d unfinished=%d, want 0/0\n%s", res.Errors, res.Unfinished, res)
	}
	ops := res.Ops
	if ops.MultiGet.Issued == 0 || ops.Scan.Issued == 0 || ops.Filter.Issued == 0 || ops.RMW.Issued == 0 {
		t.Fatalf("some family never drawn: %s", ops.String())
	}
	if ops.MultiGet.Errors+ops.Scan.Errors+ops.Filter.Errors+ops.RMW.Errors != 0 {
		t.Fatalf("operator errors on a healthy run: %s", ops.String())
	}
	if ops.Total() == 0 || ops.Bytes() == 0 {
		t.Fatalf("no operator traffic tallied: %s", ops.String())
	}
	for name, h := range map[string]int64{
		"multiget": res.OpsMultiGetLat.N(),
		"scan":     res.OpsScanLat.N(),
		"filter":   res.OpsFilterLat.N(),
		"rmw":      res.OpsRMWLat.N(),
	} {
		if h == 0 {
			t.Errorf("family %s recorded no logical latencies", name)
		}
	}
	// Every family moved wire traffic.
	for name, tl := range map[string]int64{
		"multiget": ops.MultiGet.WireReqs, "scan": ops.Scan.WireReqs,
		"filter": ops.Filter.WireReqs, "rmw": ops.RMW.WireReqs,
	} {
		if tl == 0 {
			t.Errorf("family %s issued no wire requests", name)
		}
	}
}

func TestOpsDeterministicReplay(t *testing.T) {
	mk := func(seed uint64) string {
		return runOnce(t, func(k *sim.Kernel) Config {
			return mcnBench(k, 2, opsConfig(seed, nmop.ModeAuto, 0.10))
		}).String()
	}
	a, b := mk(21), mk(21)
	if a != b {
		t.Fatalf("same seed, different op runs:\n%s\n----\n%s", a, b)
	}
	if c := mk(22); c == a {
		t.Fatal("different seeds produced identical op runs")
	}
}

// TestOpsFilterBytesSavings is the acceptance figure: at 10% selectivity
// the on-DIMM filter+aggregate path must move at least 5x fewer bytes
// over the channel than the host-side fallback fetching raw rows.
func TestOpsFilterBytesSavings(t *testing.T) {
	run := func(mode nmop.Mode) *Result {
		return runOnce(t, func(k *sim.Kernel) Config {
			return mcnBench(k, 2, opsConfig(31, mode, 0.10))
		})
	}
	host, dimm := run(nmop.ModeHost), run(nmop.ModeDimm)
	if host.Ops.Filter.Issued != dimm.Ops.Filter.Issued {
		t.Fatalf("forced modes drew different filter streams: host=%d dimm=%d",
			host.Ops.Filter.Issued, dimm.Ops.Filter.Issued)
	}
	hb, db := host.Ops.Filter.Bytes(), dimm.Ops.Filter.Bytes()
	if hb == 0 || db == 0 {
		t.Fatalf("no filter traffic: host=%d dimm=%d", hb, db)
	}
	if ratio := float64(hb) / float64(db); ratio < 5 {
		t.Fatalf("on-DIMM filter moved only %.1fx fewer bytes at 10%% selectivity, want >= 5x\nhost: %s\ndimm: %s",
			ratio, host.Ops.Filter.String(), dimm.Ops.Filter.String())
	}
	// The host path also spends more wire requests per RMW and multi-GET.
	if host.Ops.RMW.WireReqs <= dimm.Ops.RMW.WireReqs {
		t.Errorf("host RMW wire reqs %d not above dimm %d", host.Ops.RMW.WireReqs, dimm.Ops.RMW.WireReqs)
	}
	if host.Ops.MultiGet.WireReqs <= dimm.Ops.MultiGet.WireReqs {
		t.Errorf("host multiget wire reqs %d not above dimm %d", host.Ops.MultiGet.WireReqs, dimm.Ops.MultiGet.WireReqs)
	}
}

// TestOpsAutoModePicksCheaperPath checks the decision layer at both ends
// of the selectivity sweep: highly selective filters offload, while
// filters returning nearly every row run host-side (shipping the rows is
// unavoidable, so the DIMM's slower per-row compute is pure penalty).
func TestOpsAutoModePicksCheaperPath(t *testing.T) {
	run := func(sel float64) *Result {
		return runOnce(t, func(k *sim.Kernel) Config {
			return mcnBench(k, 2, opsConfig(41, nmop.ModeAuto, sel))
		})
	}
	lo := run(0.10)
	if f := lo.Ops.Filter; f.Offloaded != f.Issued || f.Host != 0 {
		t.Fatalf("10%% selectivity: auto should offload every filter: %s", f.String())
	}
	hi := run(0.90)
	if f := hi.Ops.Filter; f.Host != f.Issued || f.Offloaded != 0 {
		t.Fatalf("90%% selectivity: auto should keep every filter host-side: %s", f.String())
	}
	// Auto must track the forced winner's bytes at each end.
	loDimm := runOnce(t, func(k *sim.Kernel) Config {
		return mcnBench(k, 2, opsConfig(41, nmop.ModeDimm, 0.10))
	})
	if lo.Ops.Filter.Bytes() != loDimm.Ops.Filter.Bytes() {
		t.Errorf("auto at 10%% moved %d filter bytes, forced dimm %d",
			lo.Ops.Filter.Bytes(), loDimm.Ops.Filter.Bytes())
	}
}

// TestOpsClosedLoop exercises the logical-op completion signal path.
func TestOpsClosedLoop(t *testing.T) {
	res := runOnce(t, func(k *sim.Kernel) Config {
		cfg := opsConfig(51, nmop.ModeAuto, 0.10)
		cfg.RatePerSec = 0
		cfg.ClosedWorkers = 8
		return mcnBench(k, 2, cfg)
	})
	if res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("errors=%d unfinished=%d, want 0/0\n%s", res.Errors, res.Unfinished, res)
	}
	if res.Ops.Total() == 0 {
		t.Fatalf("closed-loop drew no operator traffic: %s", res.Ops.String())
	}
}
