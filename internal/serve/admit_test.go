package serve

import (
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/sim"
)

// admitBench is mcnBench plus the fault-injection hook, so admission tests
// can flap a DIMM mid-run.
func admitBench(k *sim.Kernel, nDimms int, cfg Config) (Config, func(*faults.Injector)) {
	s := cluster.NewMcnServer(k, nDimms, core.MCN5.Options())
	for _, m := range s.Mcns {
		ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
		srv := kvstore.NewServer(k, ep, 11211)
		cfg.Shards = append(cfg.Shards, Shard{Name: m.Node.Name, Addr: m.IP, Port: 11211, Server: srv})
	}
	cfg.Clients = []cluster.Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}}
	return cfg, s.InjectFaults
}

// admitFlapConfig is the shared shape of the flap tests: 4 shards, one
// flapped offline for 2ms starting 1ms into the measured window. The
// window is long relative to the flap so the p99 verdict reflects what
// admission can control (traffic after detection) rather than the
// handful of requests unavoidably trapped before the first timeout edge.
func admitFlapConfig(seed uint64, policy admit.Policy) Config {
	return Config{
		Seed:       seed,
		Workload:   Workload{Keys: 2000, ValueBytes: 128},
		RatePerSec: 200e3,
		Admit:      admit.Config{On: true, Policy: policy},
		Warmup:     sim.Millisecond,
		Measure:    15 * sim.Millisecond,
		Drain:      20 * sim.Millisecond, // room for the RTO tail of trapped requests
	}
}

// runAdmitFlap executes one flapped run and returns the result plus the
// index of the flapped shard.
func runAdmitFlap(t *testing.T, seed uint64, policy admit.Policy) (*Result, int) {
	t.Helper()
	return runFlapped(t, admitFlapConfig(seed, policy))
}

// runFlapped runs cfg on a 4-DIMM server with host/mcn1 flapped offline
// for 2ms starting 1ms into the measured window, and returns the result
// plus the index of the flapped shard.
func runFlapped(t *testing.T, cfg Config) (*Result, int) {
	t.Helper()
	const flapDimm = "host/mcn1"
	k := sim.NewKernel()
	cfg, inject := admitBench(k, 4, cfg)
	measStart := k.Now().Add(cfg.Warmup)
	inject(faults.New(k, faults.Plan{
		Seed: cfg.Seed,
		DimmFlaps: []faults.DimmFlap{{
			Name:  flapDimm,
			Start: measStart.Add(sim.Millisecond),
			End:   measStart.Add(3 * sim.Millisecond),
		}},
	}))
	res := Run(k, cfg)
	k.Shutdown()
	flapped := -1
	for _, ss := range res.PerShard {
		if ss.Name == flapDimm {
			flapped = ss.Shard
		}
	}
	if flapped < 0 {
		t.Fatalf("no shard named %s", flapDimm)
	}
	return res, flapped
}

// TestAdmitColdStartStaysQuiet is the cold-start guard: connection
// establishment (ARP resolution plus the TCP handshake) happens under the
// breaker's nose during warmup, and a healthy run must never trip one —
// outstanding age is counted from the wire send, not from enqueue, so
// handshake latency is invisible to the timeout detector.
func TestAdmitColdStartStaysQuiet(t *testing.T) {
	res := runOnce(t, func(k *sim.Kernel) Config {
		return mcnBench(k, 4, Config{
			Seed:       11,
			Workload:   Workload{Keys: 2000, ValueBytes: 128},
			RatePerSec: 200e3,
			Admit:      admit.Config{On: true},
			Warmup:     sim.Millisecond,
			Measure:    5 * sim.Millisecond,
			Drain:      2 * sim.Millisecond,
		})
	})
	if !res.AdmitOn {
		t.Fatal("admission plane did not run")
	}
	if len(res.AdmitEvents) != 0 {
		t.Fatalf("healthy run produced breaker events:\n%s", res)
	}
	if res.Shed != 0 || res.Rerouted != 0 {
		t.Fatalf("healthy run shed=%d rerouted=%d, want 0/0", res.Shed, res.Rerouted)
	}
	if res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("healthy run errors=%d unfinished=%d\n%s", res.Errors, res.Unfinished, res)
	}
	if deg := res.Degraded(); len(deg) != 0 {
		t.Fatalf("healthy admitted run reports degraded shards %v", deg)
	}
	if c := res.AdmitCounters; c.Opens != 0 || c.Shed != 0 || c.Rerouted != 0 {
		t.Fatalf("healthy counters: %+v", c)
	}
}

// TestAdmitClosedLoopHealthy runs the closed-loop driver with admission on:
// the shed path's worker turnaround must not deadlock or distort a healthy
// run.
func TestAdmitClosedLoopHealthy(t *testing.T) {
	res := runOnce(t, func(k *sim.Kernel) Config {
		return mcnBench(k, 2, Config{
			Seed:          12,
			Workload:      Workload{Keys: 2000, ValueBytes: 128},
			ClosedWorkers: 8,
			Admit:         admit.Config{On: true},
			Warmup:        sim.Millisecond,
			Measure:       5 * sim.Millisecond,
			Drain:         2 * sim.Millisecond,
		})
	})
	if res.N == 0 || res.Errors != 0 || len(res.AdmitEvents) != 0 {
		t.Fatalf("closed loop with admission: n=%d errors=%d events=%d", res.N, res.Errors, len(res.AdmitEvents))
	}
}

func TestAdmitFlapShedPolicy(t *testing.T) {
	res, flapped := runAdmitFlap(t, 21, admit.Shed)
	opened := false
	for _, e := range res.AdmitEvents {
		if e.Shard == flapped && e.To == "open" {
			opened = true
		}
		if e.Shard != flapped {
			t.Fatalf("healthy shard %d got breaker event %s", e.Shard, e)
		}
	}
	if !opened {
		t.Fatalf("flapped shard's breaker never opened:\n%s", res)
	}
	if res.Shed == 0 || res.PerShard[flapped].Shed != res.Shed {
		t.Fatalf("shed policy: shed=%d (shard %d shed=%d), want all attributed to the flapped shard\n%s",
			res.Shed, flapped, res.PerShard[flapped].Shed, res)
	}
	if res.Rerouted != 0 {
		t.Fatalf("shed policy rerouted %d requests", res.Rerouted)
	}
	deg := res.Degraded()
	if len(deg) != 1 || deg[0] != flapped {
		t.Fatalf("degraded = %v, want exactly the flapped shard %d", deg, flapped)
	}
	// The breaker must close again after the flap: the last event for the
	// flapped shard ends in the closed state.
	last := res.AdmitEvents[len(res.AdmitEvents)-1]
	if last.To != "closed" {
		t.Fatalf("breaker did not recover; last event %s", last)
	}
}

func TestAdmitFlapReroutePolicy(t *testing.T) {
	res, flapped := runAdmitFlap(t, 22, admit.Reroute)
	if res.Rerouted == 0 {
		t.Fatalf("reroute policy moved no requests:\n%s", res)
	}
	if res.PerShard[flapped].Rerouted != 0 {
		t.Fatalf("flapped shard absorbed %d rerouted requests", res.PerShard[flapped].Rerouted)
	}
	var absorbed int64
	for _, ss := range res.PerShard {
		absorbed += ss.Rerouted
	}
	if absorbed != res.Rerouted {
		t.Fatalf("per-shard rerouted sum %d != total %d", absorbed, res.Rerouted)
	}
	// Rerouted GETs miss on the fallback owner (it never preloaded those
	// keys) but a fast miss still completes; nothing should be shed unless
	// every breaker opened, which a single flap cannot cause.
	if res.Shed != 0 {
		t.Fatalf("reroute policy shed %d requests with healthy fallbacks", res.Shed)
	}
	if deg := res.Degraded(); len(deg) != 1 || deg[0] != flapped {
		t.Fatalf("degraded = %v, want exactly the flapped shard %d", deg, flapped)
	}
}

// TestAdmitDegradedReadsTimeline pins the satellite contract: with
// admission on, Degraded() is the breaker timeline's verdict, not the
// latency heuristic's. A shard that opened and recovered cleanly is
// degraded even if its surviving latencies look ordinary.
func TestAdmitDegradedReadsTimeline(t *testing.T) {
	res, flapped := runAdmitFlap(t, 23, admit.Shed)
	opened := false
	for _, e := range res.AdmitEvents {
		if e.Shard == flapped && e.To == "open" {
			opened = true
		}
	}
	if !opened {
		t.Skip("flap did not open the breaker at this seed; covered by other seeds")
	}
	if deg := res.Degraded(); len(deg) != 1 || deg[0] != flapped {
		t.Fatalf("timeline-driven Degraded() = %v, want [%d]", deg, flapped)
	}
}

// TestAdmitFlapDeterministic replays the flapped run and byte-compares the
// full rendered result — counters, per-shard lines, and the breaker event
// trace with its open/half-open/closed ordering.
func TestAdmitFlapDeterministic(t *testing.T) {
	for _, policy := range []admit.Policy{admit.Reroute, admit.Shed} {
		a, _ := runAdmitFlap(t, 31, policy)
		b, _ := runAdmitFlap(t, 31, policy)
		if a.String() != b.String() {
			t.Fatalf("policy %v: same seed, different runs:\n--- a ---\n%s--- b ---\n%s", policy, a, b)
		}
		if len(a.AdmitEvents) == 0 {
			t.Fatalf("policy %v: flap produced no breaker events", policy)
		}
		c, _ := runAdmitFlap(t, 32, policy)
		if a.String() == c.String() {
			t.Fatalf("policy %v: different seeds rendered identically", policy)
		}
	}
}

// TestAdmitFlapBoundsTail is the headline property at unit scale: during a
// DIMM flap, admission keeps the measured p99 at healthy scale instead of
// riding the TCP retransmission timeout.
func TestAdmitFlapBoundsTail(t *testing.T) {
	admitted, _ := runAdmitFlap(t, 41, admit.Reroute)

	// Same run, admission off.
	const flapDimm = "host/mcn1"
	k := sim.NewKernel()
	cfg, inject := admitBench(k, 4, admitFlapConfig(41, admit.Reroute))
	cfg.Admit = admit.Config{}
	measStart := k.Now().Add(cfg.Warmup)
	inject(faults.New(k, faults.Plan{
		Seed: 41,
		DimmFlaps: []faults.DimmFlap{{
			Name:  flapDimm,
			Start: measStart.Add(sim.Millisecond),
			End:   measStart.Add(3 * sim.Millisecond),
		}},
	}))
	bare := Run(k, cfg)
	k.Shutdown()

	pOn, pOff := admitted.Total.Quantile(0.99), bare.Total.Quantile(0.99)
	if pOn >= pOff {
		t.Fatalf("admission did not bound the fault-time tail: p99 on=%.0fns off=%.0fns", pOn, pOff)
	}
	// The unadmitted run's p99 rides the RTO (milliseconds); the admitted
	// run must stay orders of magnitude below it.
	if pOn > pOff/10 {
		t.Errorf("admitted fault-time p99 %.0fns not well below unadmitted %.0fns", pOn, pOff)
	}
	if !strings.Contains(admitted.String(), "admit") {
		t.Errorf("admitted result does not render the admission block:\n%s", admitted)
	}
}
