package mcn_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	mcn "github.com/mcn-arch/mcn"
)

// chaosPlan is the fixed adversarial fault plan the chaos test replays: every
// uplink cable loses >=1% of frames (some in bursts) and corrupts a few more
// (caught by the FCS verify), the memory channels eat 1% of MCN messages,
// interrupt edges are swallowed on both sides, and one DIMM drops off its
// channel entirely for 2ms in the middle of the run.
func chaosPlan() mcn.FaultPlan {
	return mcn.FaultPlan{
		Seed:              42,
		LinkDropProb:      0.015,
		LinkCorruptProb:   0.01,
		BurstLen:          2,
		McnLossProb:       0.01,
		AlertSuppressProb: 0.05,
		RxIRQSuppressProb: 0.02,
		DimmFlaps: []mcn.DimmFlap{{
			Name:  "host0/mcn1",
			Start: mcn.Time(2 * mcn.Millisecond),
			End:   mcn.Time(4 * mcn.Millisecond),
		}},
	}
}

// chaosOutcome captures everything one chaos run produced that a replay with
// the same seed must reproduce exactly.
type chaosOutcome struct {
	transferDone mcn.Time // sim time the cross-host stream finished
	wcElapsed    mcn.Duration
	words        map[string]string
	summary      string
	drops        int64
	corruptions  int64
	suppressed   int64
	carrierDowns int64
	carrierUps   int64
}

// runChaos builds a 2-server MCN rack, injects the adversarial plan, and
// drives a patterned cross-host TCP stream plus a rack-wide wordcount job
// through the faults.
func runChaos(t *testing.T) *chaosOutcome {
	t.Helper()
	k := mcn.NewKernel()
	r := mcn.NewMcnRack(k, 2, 2, mcn.MCN1.Options())
	in := mcn.NewFaultInjector(chaosPlan())
	r.InjectFaults(in)

	// Patterned stream from an MCN node on host0 to one on host1: crosses
	// both lossy cables and both hosts' forwarding engines.
	src, dst := r.Servers[0].Mcns[0], r.Servers[1].Mcns[0]
	const total = 256 << 10
	msg := make([]byte, total)
	for i := range msg {
		msg[i] = byte(i*11 + i>>8)
	}
	var got []byte
	out := &chaosOutcome{}
	k.Go("chaos-server", func(p *mcn.Proc) {
		l, _ := dst.Stack.Listen(5001)
		c, _ := l.Accept(p)
		buf := make([]byte, 8192)
		for len(got) < total {
			n, ok := c.Recv(p, buf)
			got = append(got, buf[:n]...)
			if !ok {
				break
			}
		}
		out.transferDone = p.Now()
	})
	k.Go("chaos-client", func(p *mcn.Proc) {
		c, err := src.Stack.Connect(p, dst.IP, 5001)
		if err != nil {
			panic(err)
		}
		c.Send(p, msg)
	})

	// Wordcount across all four MCN nodes — including host0/mcn1, which
	// flaps offline mid-run.
	job := mcn.MapReduceJob{
		Input: []string{
			"the quick brown fox jumps over the lazy dog",
			"the dog barks and the fox runs",
			"chaos tests the fox and the dog",
		},
		Map: func(split string, emit func(k, v string)) {
			for _, w := range strings.Fields(split) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, vs []string) string {
			return strconv.Itoa(len(vs))
		},
	}
	w := mcn.LaunchMPI(k, r.AllMcnEndpoints(), 7000, func(rk *mcn.Rank) {
		if res := mcn.RunMapReduce(rk, job); rk.ID == 0 {
			out.words = res
		}
	})

	for i := 0; i < 500 && !(w.Done() && len(got) >= total); i++ {
		k.RunFor(10 * mcn.Millisecond)
	}
	if len(got) != total {
		t.Fatalf("cross-host stream delivered %d of %d bytes under faults", len(got), total)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("cross-host stream delivered corrupted bytes")
	}
	if !w.Done() {
		t.Fatal("wordcount did not finish under faults")
	}
	out.wcElapsed = w.Elapsed()
	out.summary = in.Summary()
	tot := in.Totals()
	out.drops = tot.Drops + tot.BurstDrops + tot.FlapDrops
	out.corruptions = tot.Corruptions
	out.suppressed = tot.Suppressed
	hd := r.Servers[0].Host.Driver
	out.carrierDowns = hd.Recov.CarrierDowns
	out.carrierUps = hd.Recov.CarrierUps
	k.Shutdown()
	return out
}

// TestChaos proves the robustness story end to end: under a fixed adversarial
// fault plan — frame loss, FCS-caught corruption, swallowed interrupt edges,
// and a whole-DIMM flap — both a cross-host TCP stream and a rack-wide
// wordcount complete with exactly correct output, and replaying the same seed
// reproduces the run bit for bit.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration run skipped in -short mode")
	}
	a := runChaos(t)

	if a.drops == 0 {
		t.Fatal("plan injected no frame loss")
	}
	if a.corruptions == 0 {
		t.Fatal("plan injected no corruption")
	}
	if a.suppressed < 2 {
		t.Fatalf("only %d interrupt edges suppressed, want >= 2", a.suppressed)
	}
	if a.carrierDowns < 1 || a.carrierUps < 1 {
		t.Fatalf("DIMM flap unseen: carrier downs=%d ups=%d", a.carrierDowns, a.carrierUps)
	}
	want := map[string]string{"the": "6", "fox": "3", "dog": "3", "and": "2"}
	for k2, v := range want {
		if a.words[k2] != v {
			t.Fatalf("wordcount[%q] = %q, want %q (full: %v)", k2, a.words[k2], v, a.words)
		}
	}

	// Same seed, second run: the entire outcome must replay exactly.
	b := runChaos(t)
	if a.transferDone != b.transferDone {
		t.Fatalf("transfer completion diverged: %v vs %v", a.transferDone, b.transferDone)
	}
	if a.wcElapsed != b.wcElapsed {
		t.Fatalf("wordcount elapsed diverged: %v vs %v", a.wcElapsed, b.wcElapsed)
	}
	if a.summary != b.summary {
		t.Fatalf("fault counter summaries diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a.summary, b.summary)
	}
	if a.carrierDowns != b.carrierDowns || a.carrierUps != b.carrierUps {
		t.Fatalf("carrier transitions diverged: %d/%d vs %d/%d",
			a.carrierDowns, a.carrierUps, b.carrierDowns, b.carrierUps)
	}

	// The serving tier under the same chaos seed, with the admission plane
	// armed: a DIMM flap mid-window must trip exactly one shard's breaker,
	// and the whole run — including the breaker open/half-open/closed event
	// ordering in the rendered timeline — must replay byte-identically.
	sa := mcn.ServeFaults(42, mcn.Topo{Fabric: "mcn5", Batch: true, Admit: true})
	if !sa.Admitted || !sa.Result.AdmitOn {
		t.Fatal("admitted chaos serve run reports the admission plane off")
	}
	if len(sa.Result.AdmitEvents) == 0 {
		t.Fatal("DIMM flap tripped no breaker; the admission plane looks inert")
	}
	for _, e := range sa.Result.AdmitEvents {
		if sa.Result.PerShard[e.Shard].Name != sa.FlapDimm {
			t.Fatalf("healthy shard %d (%s) got breaker event %s",
				e.Shard, sa.Result.PerShard[e.Shard].Name, e)
		}
	}
	sb := mcn.ServeFaults(42, mcn.Topo{Fabric: "mcn5", Batch: true, Admit: true})
	if sa.String() != sb.String() {
		t.Fatalf("admitted serve chaos replay diverged:\n--- run A ---\n%s--- run B ---\n%s", sa, sb)
	}
}

// TestBatchedServeFaultReplayDeterminism replays the serving-under-faults
// experiment with the request-coalescing window enabled: a DIMM flap in
// the middle of the measured window, batched shard connections, and the
// whole rendered result — every latency quantile, batch statistic and
// per-shard degradation line — must be byte-identical across two runs
// with one seed, and must differ for another seed.
func TestBatchedServeFaultReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("batched fault-replay run skipped in -short mode")
	}
	a := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true})
	if !a.Batched {
		t.Fatal("run does not report batching enabled")
	}
	if a.Result.BatchSize.N() == 0 {
		t.Fatal("no batches flushed in the measured window; coalescing never engaged")
	}
	if len(a.Degraded) == 0 {
		t.Fatal("DIMM flap degraded no shard; fault injection looks inert")
	}
	b := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true})
	if as, bs := a.String(), b.String(); as != bs {
		t.Fatalf("same seed, different batched fault replay:\n--- run A ---\n%s\n--- run B ---\n%s", as, bs)
	}
	c := mcn.ServeFaults(78, mcn.Topo{Fabric: "mcn5", Batch: true})
	if c.String() == a.String() {
		t.Fatal("different seed replayed the identical result; injection looks seed-independent")
	}

	// Same experiment with the admission plane armed: the breaker must
	// open at least once, every transition lands in the rendered timeline,
	// and the replay — jittered backoff windows included — stays
	// byte-identical per seed and distinct across seeds.
	aa := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Admit: true})
	if !aa.Admitted {
		t.Fatal("run does not report admission enabled")
	}
	if aa.Result.AdmitCounters.Opens < 1 {
		t.Fatalf("flap never opened a breaker: %s", aa.Result.AdmitCounters.String())
	}
	if len(aa.Result.AdmitEvents) == 0 {
		t.Fatal("breaker opened but the health timeline is empty")
	}
	ab := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Admit: true})
	if aa.String() != ab.String() {
		t.Fatalf("same seed, different admitted fault replay:\n--- run A ---\n%s--- run B ---\n%s", aa, ab)
	}
	ac := mcn.ServeFaults(78, mcn.Topo{Fabric: "mcn5", Batch: true, Admit: true})
	if ac.String() == aa.String() {
		t.Fatal("different seed replayed the identical admitted result")
	}
}

// TestMcntFaultReplayDeterminism is the mcnt chaos gate: a whole-DIMM
// flap mid-window on the mcnt-transported serving tier must recover
// through the transport's own go-back-N window (resends > 0 proves the
// path was exercised), leave zero credit-accounting drift after the
// post-run quiesce (every byte the flap ate was resent, every grant
// reconverged, the window fully reopened), and the entire run — latency
// quantiles, per-shard telemetry, fabric frame/credit counters — must
// replay byte-identically per seed and differ across seeds.
func TestMcntFaultReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mcnt fault-replay run skipped in -short mode")
	}
	a := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Mcnt: true})
	if !a.Mcnt {
		t.Fatal("run does not report the mcnt transport")
	}
	if len(a.Degraded) == 0 {
		t.Fatal("DIMM flap degraded no shard; fault injection looks inert")
	}
	if len(a.McntDrift) != 0 {
		t.Fatalf("credit accounting did not reconverge after the flap:\n%s", a)
	}
	if !strings.Contains(a.McntFabric, "resent=") || strings.Contains(a.McntFabric, "resent=0 ") {
		t.Fatalf("flap recovered without a single mcnt resend — go-back-N never engaged: %s", a.McntFabric)
	}
	b := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Mcnt: true})
	if as, bs := a.String(), b.String(); as != bs {
		t.Fatalf("same seed, different mcnt fault replay:\n--- run A ---\n%s\n--- run B ---\n%s", as, bs)
	}
	c := mcn.ServeFaults(78, mcn.Topo{Fabric: "mcn5", Batch: true, Mcnt: true})
	if c.String() == a.String() {
		t.Fatal("different seed replayed the identical mcnt result; injection looks seed-independent")
	}
}

// TestReplicatedFaultReplayDeterminism is the replication chaos gate: a
// whole-DIMM flap mid-window on the replicated serving tier must cost no
// availability — reads fail over to the backup replica (no misses, no
// errors from the outage), sync writes stay durable, the async forward
// window stays bounded, and the primaries and backups converge after the
// final anti-entropy sweep. The whole run — failover counts, catch-up
// event timeline, latency quantiles — must replay byte-identically per
// seed and differ across seeds.
func TestReplicatedFaultReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated fault-replay run skipped in -short mode")
	}
	a := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Repl: true})
	if !a.Repl || !a.Result.ReplOn {
		t.Fatal("replicated chaos serve run reports the replication plane off")
	}
	if !a.Admitted {
		t.Fatal("replicated run must have the admission plane armed (it is the failover signal)")
	}
	rc := a.Result.ReplCounters
	if a.Result.FailedOver == 0 || rc.FailoverReads == 0 {
		t.Fatalf("DIMM flap triggered no failover reads; replication looks inert: %s", rc.String())
	}
	if a.Result.Misses != 0 {
		t.Fatalf("flap cost %d GET misses; backup replica did not cover the keyspace", a.Result.Misses)
	}
	if a.Result.Errors != 0 {
		t.Fatalf("flap cost %d errors; replicated serving should ride through the outage", a.Result.Errors)
	}
	if rc.SyncAcks == 0 {
		t.Fatalf("no sync write ever waited for the backup ack: %s", rc.String())
	}
	if rc.SyncFailed != 0 {
		t.Fatalf("%d sync writes failed outright (want degrade-to-local during the flap, never an error)", rc.SyncFailed)
	}
	if w := int64(mcn.ServeReplWindow); rc.MaxPending > w {
		t.Fatalf("async forward backlog hit %d, above the %d-record window", rc.MaxPending, w)
	}
	if rc.CatchupPulls == 0 || rc.CatchupRecs == 0 {
		t.Fatalf("recovered primary never pulled a catch-up delta: %s", rc.String())
	}
	if a.Diverged != 0 {
		t.Fatalf("%d keys diverged between primaries and backups after the final sweep", a.Diverged)
	}
	b := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Repl: true})
	if as, bs := a.String(), b.String(); as != bs {
		t.Fatalf("same seed, different replicated fault replay:\n--- run A ---\n%s--- run B ---\n%s", as, bs)
	}
	c := mcn.ServeFaults(78, mcn.Topo{Fabric: "mcn5", Batch: true, Repl: true})
	if c.String() == a.String() {
		t.Fatal("different seed replayed the identical replicated result")
	}
}

// TestOpsFaultReplayDeterminism is the near-memory operator chaos gate:
// a whole-DIMM flap mid-window while multi-GETs, scans, filters and RMWs
// are in flight. The flap must leave visible damage (a degraded shard,
// request errors, or operator errors), the surviving shards must keep
// completing operators on both execution paths, and the entire run —
// operator decisions, per-family byte tallies, latency quantiles — must
// replay byte-identically per seed and differ across seeds.
func TestOpsFaultReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("ops fault-replay run skipped in -short mode")
	}
	a := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Ops: true})
	if !a.Ops || !a.Result.OpsOn {
		t.Fatal("ops chaos serve run reports the operator mix off")
	}
	res := a.Result
	if res.Ops.Total() == 0 || res.Ops.Bytes() == 0 {
		t.Fatalf("no operator traffic crossed the run: %s", res.Ops.String())
	}
	opErrs := res.Ops.MultiGet.Errors + res.Ops.Scan.Errors + res.Ops.Filter.Errors + res.Ops.RMW.Errors
	if len(a.Degraded) == 0 && res.Errors == 0 && res.Unfinished == 0 && opErrs == 0 {
		t.Fatal("DIMM flap left no visible damage; fault injection looks inert")
	}
	// Both execution paths stayed live through the flap: the auto mix
	// offloads filters/RMWs and keeps high-fan-out host legs for scans.
	if res.Ops.Filter.Offloaded == 0 {
		t.Fatalf("no operator ran on-DIMM through the flap: %s", res.Ops.String())
	}
	b := mcn.ServeFaults(77, mcn.Topo{Fabric: "mcn5", Batch: true, Ops: true})
	if as, bs := a.String(), b.String(); as != bs {
		t.Fatalf("same seed, different ops fault replay:\n--- run A ---\n%s--- run B ---\n%s", as, bs)
	}
	c := mcn.ServeFaults(78, mcn.Topo{Fabric: "mcn5", Batch: true, Ops: true})
	if c.String() == a.String() {
		t.Fatal("different seed replayed the identical ops result; injection looks seed-independent")
	}
}

// TestFaultReplayDeterminism is the cheap always-on determinism regression:
// two runs of a faulty transfer with one seed must agree on completion time
// and every counter; a third run with a different seed must not.
func TestFaultReplayDeterminism(t *testing.T) {
	run := func(seed uint64) (mcn.Time, string) {
		k := mcn.NewKernel()
		s := mcn.NewMcnServer(k, 2, mcn.MCN1.Options())
		in := mcn.NewFaultInjector(mcn.FaultPlan{
			Seed:              seed,
			McnLossProb:       0.02,
			AlertSuppressProb: 0.1,
			RxIRQSuppressProb: 0.05,
		})
		s.InjectFaults(in)
		var doneAt mcn.Time
		k.Go("server", func(p *mcn.Proc) {
			l, _ := s.Mcns[0].Stack.Listen(5001)
			c, _ := l.Accept(p)
			c.RecvN(p, 64<<10)
			doneAt = p.Now()
		})
		k.Go("client", func(p *mcn.Proc) {
			c, err := s.Host.Stack.Connect(p, s.Mcns[0].IP, 5001)
			if err != nil {
				panic(err)
			}
			c.SendN(p, 64<<10)
		})
		k.RunFor(5 * mcn.Second)
		if doneAt == 0 {
			t.Fatalf("seed %d: transfer never completed", seed)
		}
		k.Shutdown()
		return doneAt, in.Summary()
	}
	t1, s1 := run(9)
	t2, s2 := run(9)
	if t1 != t2 {
		t.Fatalf("same seed, different completion: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("same seed, different counters:\n%s\nvs\n%s", s1, s2)
	}
	t3, _ := run(10)
	if t3 == t1 {
		t.Fatal("different seed replayed the exact same completion time; injection looks seed-independent")
	}
}

// TestTimelineFaultReplayDeterminism is the continuous-telemetry chaos
// gate: the DIMM-flap A/B with the windowed timeline attached must (a)
// detect and attribute the injected flap on the unprotected variant with
// stable detection/recovery stamps, and (b) replay byte-identically —
// every variant's timeline JSON artifact, incident report and the
// rendered experiment — across reruns of the same seed.
func TestTimelineFaultReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timeline fault-replay run skipped in -short mode")
	}
	run := func(seed uint64) (*mcn.ServeTimelineResult, [][]byte, []string) {
		r := mcn.ServeTimeline(seed)
		var jsons [][]byte
		var reports []string
		for _, v := range r.Variants {
			var buf bytes.Buffer
			if err := v.Timeline.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			jsons = append(jsons, buf.Bytes())
			reports = append(reports, v.Timeline.Report())
		}
		return r, jsons, reports
	}
	a, aj, ar := run(42)
	if len(a.Variants) != 3 {
		t.Fatalf("variants: %d", len(a.Variants))
	}

	// The unprotected variant must fire, attribute the burn to the
	// injected flap, and carry both detection and recovery stamps.
	off := a.Variants[0]
	incs := off.Timeline.Incidents()
	if len(incs) == 0 {
		t.Fatal("unprotected variant saw the flap but the monitor never fired")
	}
	if want := a.FlapDimm + " offline"; incs[0].Cause != want {
		t.Fatalf("incident cause %q, want %q", incs[0].Cause, want)
	}
	if incs[0].FaultStartPs != int64(a.FlapStart) || incs[0].FaultEndPs != int64(a.FlapEnd) {
		t.Fatalf("incident joined the wrong fault window: %+v", incs[0])
	}
	if off.DetectNs < 0 || off.RecoverNs < 0 || off.BurnNs <= 0 {
		t.Fatalf("detection/recovery unstamped: detect=%v recover=%v burn=%v",
			off.DetectNs, off.RecoverNs, off.BurnNs)
	}
	if len(off.Timeline.Alerts())%2 != 0 {
		t.Fatalf("unpaired alert stream: %+v", off.Timeline.Alerts())
	}

	// Byte-identical replay: artifacts, reports, and the rendered table.
	b, bj, br := run(42)
	for i := range aj {
		if !bytes.Equal(aj[i], bj[i]) {
			t.Fatalf("variant %s timeline JSON differs across replays", a.Variants[i].Name)
		}
		if ar[i] != br[i] {
			t.Fatalf("variant %s incident report differs across replays:\n%s\nvs\n%s",
				a.Variants[i].Name, ar[i], br[i])
		}
	}
	if a.String() != b.String() {
		t.Fatalf("same seed, different timeline experiment:\n%s\nvs\n%s", a, b)
	}

	// A different seed must not replay the identical artifact.
	_, cj, _ := run(43)
	if bytes.Equal(aj[0], cj[0]) {
		t.Fatal("different seed replayed the identical timeline bytes")
	}
}
