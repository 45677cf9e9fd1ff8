package exp

import (
	"bytes"
	"testing"

	"github.com/mcn-arch/mcn/internal/obs"
)

// TestServeTracedPhaseSum is the tentpole acceptance check: on the fully
// optimized fabric with batching and admission on, every sampled span's
// phase breakdown must sum EXACTLY to its end-to-end latency (the
// boundaries telescope, so the tolerance is zero), and the MCN-specific
// boundaries (channel push/pop, server mark) must actually be stamped.
func TestServeTracedPhaseSum(t *testing.T) {
	r := ServeTraced(42, mustTopo("mcn5+batch+admit"), 200e3, 0, 1)
	tr := r.Tracer
	if tr.Finished == 0 {
		t.Fatal("no spans finished")
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("no spans retained")
	}
	stamped := 0
	for _, sp := range tr.Spans() {
		b := sp.Breakdown()
		var sum int64
		for _, d := range b {
			if d < 0 {
				t.Fatalf("span %d: negative phase duration %v", sp.ID, d)
			}
			sum += int64(d)
		}
		if want := int64(sp.Done.Sub(sp.Arrival)); sum != want {
			t.Fatalf("span %d: phases sum to %d, end-to-end is %d", sp.ID, sum, want)
		}
		if sp.InWindow && !sp.Err &&
			sp.HostTx != 0 && sp.ChanPush != 0 && sp.DimmPop != 0 && sp.DimmRx != 0 && sp.Served != 0 {
			stamped++
		}
	}
	// The full boundary set must be observed for the overwhelming share
	// of in-window spans (retransmitted stragglers may collapse phases).
	inWin := 0
	for _, sp := range tr.Spans() {
		if sp.InWindow && !sp.Err {
			inWin++
		}
	}
	if inWin == 0 || stamped < inWin*99/100 {
		t.Fatalf("only %d/%d in-window spans fully stamped", stamped, inWin)
	}
	// With sampling 1, the tracer's total histogram must agree exactly
	// with the serving telemetry (same durations, same HDR).
	if tr.Total.N() != r.Result.N {
		t.Fatalf("tracer aggregated %d spans, telemetry %d", tr.Total.N(), r.Result.N)
	}
	if tr.Total.Mean() != r.Result.Total.Mean() {
		t.Fatalf("tracer mean %.1f != telemetry mean %.1f", tr.Total.Mean(), r.Result.Total.Mean())
	}
}

// TestServeTracedZeroPerturbation: attaching the observability plane must
// not move a single simulated event — the traced run's telemetry is
// identical to the untraced run's.
func TestServeTracedZeroPerturbation(t *testing.T) {
	traced := ServeTraced(42, mustTopo("mcn5+batch"), 200e3, 0, 8)
	plain := ServeOnce(42, mustTopo("mcn5+batch"), 200e3, 0)
	if traced.Result.Summary() != plain.Summary() {
		t.Fatalf("traced run diverged:\n traced %v\n plain  %v", traced.Result.Summary(), plain.Summary())
	}
}

// TestServeTracedSampling: 1-in-N sampling traces roughly 1/N of the
// requests, from seeded streams.
func TestServeTracedSampling(t *testing.T) {
	full := ServeTraced(42, mustTopo("mcn5+batch"), 200e3, 0, 1)
	sampled := ServeTraced(42, mustTopo("mcn5+batch"), 200e3, 0, 8)
	if sampled.Result.Summary() != full.Result.Summary() {
		t.Fatalf("sampling rate changed the simulation: %v vs %v",
			sampled.Result.Summary(), full.Result.Summary())
	}
	frac := float64(sampled.Tracer.Started) / float64(full.Tracer.Started)
	if frac < 0.08 || frac > 0.18 {
		t.Fatalf("1-in-8 sampling traced %.3f of requests (started %d/%d)",
			frac, sampled.Tracer.Started, full.Tracer.Started)
	}
}

// TestServeTracedFaultReplayDeterminism: the trace artifacts themselves
// (Perfetto JSON and the metrics snapshot) must be byte-identical across
// replays of a faulted run — the repo-wide replay property now covers
// the observability plane.
func TestServeTracedFaultReplayDeterminism(t *testing.T) {
	run := func() ([]byte, []byte) {
		r := ServeTracedFaults(7, mustTopo("mcn5+batch+admit"), 200e3, 4)
		var trace, metrics bytes.Buffer
		if err := r.Tracer.WritePerfetto(&trace); err != nil {
			t.Fatal(err)
		}
		if err := r.Snapshot.WriteJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), metrics.Bytes()
	}
	t1, m1 := run()
	t2, m2 := run()
	if !bytes.Equal(t1, t2) {
		t.Fatal("Perfetto trace differs across fault replays")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics snapshot differs across fault replays")
	}
}

// TestServeTracedMcntPhaseSum: the correlator must keep its exact
// telescoping guarantee when the shard connections ride the mcnt
// transport — every span's phases sum exactly to its end-to-end
// latency, and the full MCN boundary set (host TX, channel push/pop,
// DIMM delivery, server mark) is stamped from mcnt frames rather than
// TCP segments.
func TestServeTracedMcntPhaseSum(t *testing.T) {
	r := ServeTraced(42, mustTopo("mcn5+batch+mcnt"), 200e3, 0, 1)
	tr := r.Tracer
	if tr.Finished == 0 {
		t.Fatal("no spans finished")
	}
	if r.McntFabric == "" {
		t.Fatal("no mcnt fabric summary — transport not installed?")
	}
	stamped, inWin := 0, 0
	for _, sp := range tr.Spans() {
		b := sp.Breakdown()
		var sum int64
		for _, d := range b {
			if d < 0 {
				t.Fatalf("span %d: negative phase duration %v", sp.ID, d)
			}
			sum += int64(d)
		}
		if want := int64(sp.Done.Sub(sp.Arrival)); sum != want {
			t.Fatalf("span %d: phases sum to %d, end-to-end is %d", sp.ID, sum, want)
		}
		if sp.InWindow && !sp.Err {
			inWin++
			if sp.HostTx != 0 && sp.ChanPush != 0 && sp.DimmPop != 0 && sp.DimmRx != 0 && sp.Served != 0 {
				stamped++
			}
		}
	}
	if inWin == 0 || stamped < inWin*99/100 {
		t.Fatalf("only %d/%d in-window spans fully stamped over mcnt", stamped, inWin)
	}
	if tr.Total.N() != r.Result.N {
		t.Fatalf("tracer aggregated %d spans, telemetry %d", tr.Total.N(), r.Result.N)
	}
}

// TestServeTracedMcntZeroPerturbation: the zero-perturbation guarantee
// extends to the mcnt transport — the frame tap observes, never charges
// time, so the traced run's telemetry is identical to the untraced one.
func TestServeTracedMcntZeroPerturbation(t *testing.T) {
	traced := ServeTraced(42, mustTopo("mcn5+batch+mcnt"), 200e3, 0, 8)
	plain := ServeOnce(42, mustTopo("mcn5+batch+mcnt"), 200e3, 0)
	if traced.Result.Summary() != plain.Summary() {
		t.Fatalf("traced mcnt run diverged:\n traced %v\n plain  %v", traced.Result.Summary(), plain.Summary())
	}
}

// TestServeAttrib: the paper-style table renders one column per
// configuration with phases summing to the total row.
func TestServeAttrib(t *testing.T) {
	r := ServeAttrib(42)
	if len(r.Rows) != len(ServeAttribTopos) {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for ti, rows := range r.Rows {
		var sum float64
		for pi := 0; pi < int(obs.NumPhases); pi++ {
			sum += rows[pi].MeanNs
		}
		total := rows[int(obs.NumPhases)].MeanNs
		if total <= 0 {
			t.Fatalf("%s: empty attribution", r.Topos[ti])
		}
		// Per-span sums are exact in picoseconds (TestServeTracedPhaseSum);
		// the aggregate means pass through HDR's whole-nanosecond
		// recording, so each of the NumPhases phases can truncate up to
		// 1ns against the once-truncated total.
		if diff := sum - total; diff > 1 || diff < -float64(obs.NumPhases) {
			t.Fatalf("%s: phase means sum to %.2f, total %.2f", r.Topos[ti], sum, total)
		}
	}
	s := r.String()
	if len(s) == 0 {
		t.Fatal("empty table")
	}
	t.Log("\n" + s)
}
