package serve

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/sim"
)

// mcnBench builds an MCN server with nDimms kvstore shards (one per DIMM)
// and a client on the host, ready for Run.
func mcnBench(k *sim.Kernel, nDimms int, cfg Config) Config {
	s := cluster.NewMcnServer(k, nDimms, core.MCN5.Options())
	for _, m := range s.Mcns {
		ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
		srv := kvstore.NewServer(k, ep, 11211)
		cfg.Shards = append(cfg.Shards, Shard{Name: m.Node.Name, Addr: m.IP, Port: 11211, Server: srv})
	}
	cfg.Clients = []cluster.Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}}
	return cfg
}

func runOnce(t *testing.T, cfg func(*sim.Kernel) Config) *Result {
	t.Helper()
	k := sim.NewKernel()
	res := Run(k, cfg(k))
	k.Shutdown()
	return res
}

func TestOpenLoopMcn(t *testing.T) {
	res := runOnce(t, func(k *sim.Kernel) Config {
		return mcnBench(k, 2, Config{
			Seed:       1,
			Workload:   Workload{Keys: 2000, ValueBytes: 128},
			RatePerSec: 100e3,
			Warmup:     sim.Millisecond,
			Measure:    5 * sim.Millisecond,
			Drain:      2 * sim.Millisecond,
		})
	})
	// 100k req/s over a 5ms window offers ~500 requests.
	if res.N < 300 || res.N > 700 {
		t.Fatalf("open loop completed %d in-window requests, want ~500", res.N)
	}
	if res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("errors=%d unfinished=%d, want 0/0\n%s", res.Errors, res.Unfinished, res)
	}
	if res.Total.N() != res.N {
		t.Fatalf("histogram count %d != completions %d", res.Total.N(), res.N)
	}
	// Total = queue + service per request, so the means must add up.
	if tot, parts := res.Total.Mean(), res.Queue.Mean()+res.Service.Mean(); tot < parts*0.95 || tot > parts*1.05 {
		t.Fatalf("total mean %.1f != queue+service mean %.1f", tot, parts)
	}
	var perShard int64
	for _, ss := range res.PerShard {
		if ss.N == 0 {
			t.Errorf("shard %d (%s) served no requests: router not spreading load", ss.Shard, ss.Name)
		}
		perShard += ss.N
	}
	if perShard != res.N {
		t.Fatalf("per-shard sum %d != total %d", perShard, res.N)
	}
	if len(res.Degraded()) != 0 {
		t.Fatalf("healthy run reports degraded shards %v", res.Degraded())
	}
}

func TestClosedLoopMcn(t *testing.T) {
	res := runOnce(t, func(k *sim.Kernel) Config {
		return mcnBench(k, 2, Config{
			Seed:          2,
			Workload:      Workload{Keys: 2000, ValueBytes: 128},
			ClosedWorkers: 8,
			Warmup:        sim.Millisecond,
			Measure:       5 * sim.Millisecond,
			Drain:         2 * sim.Millisecond,
		})
	})
	if res.N == 0 {
		t.Fatalf("closed loop completed nothing:\n%s", res)
	}
	if res.Errors != 0 || res.Unfinished != 0 {
		t.Fatalf("errors=%d unfinished=%d, want 0/0\n%s", res.Errors, res.Unfinished, res)
	}
	if res.OfferedQPS != 0 {
		t.Fatalf("closed-loop result reports offered qps %.0f", res.OfferedQPS)
	}
	// Closed loop self-limits: queue wait should be a small share of total.
	if res.Queue.Mean() > res.Total.Mean()/2 {
		t.Errorf("closed loop queue mean %.0fns exceeds half of total %.0fns", res.Queue.Mean(), res.Total.Mean())
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() *Result {
		return runOnce(t, func(k *sim.Kernel) Config {
			return mcnBench(k, 3, Config{
				Seed:       42,
				Workload:   Workload{Keys: 1000, ValueBytes: 64},
				RatePerSec: 80e3,
			})
		})
	}
	a, b := mk(), mk()
	if a.Summary() != b.Summary() {
		t.Fatalf("same seed, different summaries:\n%s\n%s", a.Summary(), b.Summary())
	}
	if a.N != b.N || a.Errors != b.Errors || a.Unfinished != b.Unfinished {
		t.Fatalf("same seed, different counts: %+v vs %+v", a, b)
	}
	for i := range a.PerShard {
		if a.PerShard[i].N != b.PerShard[i].N || a.PerShard[i].Lat.Max() != b.PerShard[i].Lat.Max() {
			t.Fatalf("same seed, shard %d differs: n=%d/%d max=%d/%d", i,
				a.PerShard[i].N, b.PerShard[i].N, a.PerShard[i].Lat.Max(), b.PerShard[i].Lat.Max())
		}
	}
	if a.Queue.Mean() != b.Queue.Mean() || a.Service.Mean() != b.Service.Mean() {
		t.Fatalf("same seed, different phase means")
	}
}

func TestSeedChangesArrivals(t *testing.T) {
	mk := func(seed uint64) *Result {
		return runOnce(t, func(k *sim.Kernel) Config {
			return mcnBench(k, 2, Config{
				Seed:       seed,
				Workload:   Workload{Keys: 1000},
				RatePerSec: 80e3,
			})
		})
	}
	a, b := mk(3), mk(4)
	if a.Summary() == b.Summary() {
		t.Fatalf("different seeds produced identical summaries: %s", a.Summary())
	}
}

func TestZipfSkewAndOpMix(t *testing.T) {
	w := Workload{Keys: 5000, GetFrac: 0.9}.withDefaults()
	g := w.newGenerator(newZipf(w.Keys, zipfTheta), 9, "gen/test")
	const draws = 100000
	counts := make(map[int]int)
	gets := 0
	for i := 0; i < draws; i++ {
		op, key, _ := g.next()
		if key < 0 || key >= w.Keys {
			t.Fatalf("key index %d out of range", key)
		}
		counts[key]++
		if op == opGet {
			gets++
		}
	}
	if frac := float64(gets) / draws; frac < 0.88 || frac > 0.92 {
		t.Errorf("GET fraction %.3f, want ~0.90", frac)
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under theta=0.99 Zipf the hottest key draws a few percent of all
	// traffic; uniform would give draws/Keys = 20 draws.
	if max < 50*draws/w.Keys {
		t.Errorf("hottest key drew %d/%d: distribution looks uniform, not Zipfian", max, draws)
	}
	// Distinct seeds give distinct streams.
	g2 := w.newGenerator(newZipf(w.Keys, zipfTheta), 10, "gen/test")
	same := true
	for i := 0; i < 32; i++ {
		o1, k1, _ := g.next()
		o2, k2, _ := g2.next()
		if o1 != o2 || k1 != k2 {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced the same request stream")
	}
}
