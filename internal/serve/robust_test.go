package serve

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/sim"
)

// mkStats builds a healthy shard: lifetime progress plus in-window
// samples, so neither Degraded() verdict has anything to flag.
func mkStats(shard int, lat int64) *ShardStats {
	ss := &ShardStats{Shard: shard, Issued: 10, N: 10, IssuedEver: 12, DoneEver: 12}
	for i := int64(0); i < 10; i++ {
		ss.Lat.Record(lat + i)
	}
	return ss
}

// TestDegradedFlagsDarkShard is the regression for the warmup blind spot:
// a shard that was routed requests over its lifetime but never answered
// one is invisible to every in-window stat (Issued, N, Errors, Unfinished
// all zero — the stranded requests predate the measured window) and to
// the latency heuristic (no samples). Both verdict paths must still flag
// it, and neither may flag a shard that was simply never routed to.
func TestDegradedFlagsDarkShard(t *testing.T) {
	mk := func(admitOn bool) *Result {
		dark := &ShardStats{Shard: 1, IssuedEver: 7} // DoneEver 0, window empty
		return &Result{
			AdmitOn:  admitOn,
			PerShard: []*ShardStats{mkStats(0, 5000), dark, mkStats(2, 5200)},
		}
	}
	for _, admitOn := range []bool{false, true} {
		r := mk(admitOn)
		got := r.Degraded()
		if len(got) != 1 || got[0] != 1 {
			t.Errorf("admitOn=%v: Degraded()=%v, want [1]", admitOn, got)
		}
		// An idle shard (nothing ever routed to it) is not dark.
		r.PerShard[1].IssuedEver = 0
		if got := r.Degraded(); len(got) != 0 {
			t.Errorf("admitOn=%v: idle shard flagged: %v", admitOn, got)
		}
	}
	// When the whole fleet made no progress the verdict stays silent:
	// there is no healthy baseline to call anyone dark against.
	r := mk(false)
	for _, ss := range r.PerShard {
		ss.DoneEver = 0
	}
	if got := r.Degraded(); len(got) != 0 {
		t.Errorf("no-progress fleet flagged %v", got)
	}
}

// TestDegradedDarkShardEndToEnd reproduces the blind spot on the wire: a
// DIMM that goes dark right after its connection establishes, before the
// warmup ends, and never comes back. Closed-loop workers strand on it
// during warmup, so its in-window stats stay all-zero — only the lifetime
// counters can convict it.
func TestDegradedDarkShardEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fault run")
	}
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN5.Options())
	cfg := Config{
		Seed:          7,
		Workload:      Workload{Keys: 256, ValueBytes: 64},
		ClosedWorkers: 4,
		Warmup:        2 * sim.Millisecond,
		Measure:       2 * sim.Millisecond,
		Drain:         sim.Millisecond,
	}
	for _, m := range s.Mcns {
		ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
		srv := kvstore.NewServer(k, ep, 11211)
		cfg.Shards = append(cfg.Shards, Shard{Name: m.Node.Name, Addr: m.IP, Port: 11211, Server: srv})
	}
	cfg.Clients = []cluster.Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}}
	dark := 1
	s.InjectFaults(faults.New(faults.Plan{
		Seed: 7,
		DimmFlaps: []faults.DimmFlap{{
			Name:  s.Mcns[dark].Node.Name,
			Start: sim.Time(12 * sim.Microsecond), // after connect, before first response
			End:   sim.Time(sim.Second),           // never returns within the run
		}},
	}))
	res := Run(k, cfg)
	k.Shutdown()

	ss := res.PerShard[dark]
	if ss.IssuedEver == 0 {
		t.Fatalf("nothing was ever routed to the dark shard:\n%s", res)
	}
	deg := res.Degraded()
	found := false
	for _, d := range deg {
		if d == dark {
			found = true
		}
	}
	if !found {
		t.Fatalf("dark shard %d missing from Degraded()=%v\nDoneEver=%d window issued=%d n=%d err=%d unfin=%d",
			dark, deg, ss.DoneEver, ss.Issued, ss.N, ss.Errors, ss.Unfinished)
	}
	// The interesting replay is the blind one: if the stranding really all
	// happened inside the warmup, the in-window stats alone could never
	// have flagged it.
	if ss.DoneEver == 0 && (ss.Errors != 0 || ss.Unfinished != 0 || ss.N != 0) {
		t.Fatalf("dark shard leaked into the window: n=%d err=%d unfin=%d", ss.N, ss.Errors, ss.Unfinished)
	}
}

func TestOwnersFirstIsShardAndDistinct(t *testing.T) {
	r := NewRouter(5, 0)
	keys := []string{"a", "mcn", "key-17", "zzzz", ""}
	for _, key := range keys {
		owners := r.Owners(key, 5)
		if len(owners) != 5 {
			t.Fatalf("Owners(%q,5)=%v, want all 5 shards", key, owners)
		}
		if owners[0] != r.Shard(key) {
			t.Fatalf("Owners(%q)[0]=%d != Shard=%d", key, owners[0], r.Shard(key))
		}
		seen := make(map[int]bool)
		for _, o := range owners {
			if o < 0 || o >= 5 || seen[o] {
				t.Fatalf("Owners(%q,5)=%v has dup or out-of-range entry", key, owners)
			}
			seen[o] = true
		}
	}
}

func TestOwnersClampAndSingleShard(t *testing.T) {
	r := NewRouter(3, 0)
	if got := r.Owners("k", 99); len(got) != 3 {
		t.Fatalf("n above shard count not clamped: %v", got)
	}
	if got := r.Owners("k", 1); len(got) != 1 || got[0] != r.Shard("k") {
		t.Fatalf("Owners(k,1)=%v, want [Shard(k)]", got)
	}
	one := NewRouter(1, 0)
	if got := one.Owners("anything", 4); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-shard ring Owners=%v, want [0]", got)
	}
	if one.shards != 1 {
		t.Fatal("shard count wrong")
	}
}

// TestOwnersWrapAroundRing drives a key whose hash lands past the last
// vnode: the walk must wrap to the ring's first point, exactly as Shard()
// does, instead of stopping or indexing out of range.
func TestOwnersWrapAroundRing(t *testing.T) {
	r := NewRouter(2, 1) // two points total: easy to land past both
	var maxHash uint64
	for _, p := range r.points {
		if p.h > maxHash {
			maxHash = p.h
		}
	}
	key := ""
	for i := 0; i < 1<<16; i++ {
		k := string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('A'+i/260))
		if fnv64(k) > maxHash {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("no wrapping key found in the probe space")
	}
	owners := r.Owners(key, 2)
	if len(owners) != 2 || owners[0] != r.Shard(key) {
		t.Fatalf("wrapped Owners(%q)=%v, Shard=%d", key, owners, r.Shard(key))
	}
	if owners[0] != r.points[0].shard {
		t.Fatalf("hash past the last point must wrap to the first: got %d, want %d",
			owners[0], r.points[0].shard)
	}
	if owners[1] == owners[0] {
		t.Fatalf("wrap walk repeated a shard: %v", owners)
	}
}

// TestReplRunHealthy runs the full serving tier with replication on and
// no faults: every write forwards, nothing fails over, and the per-pair
// backups finish converged with their primaries once the windows drain.
func TestReplRunHealthy(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN5.Options())
	cfg := Config{
		Seed:       11,
		Workload:   Workload{Keys: 512, ValueBytes: 64, GetFrac: 0.5, SyncEvery: 16},
		RatePerSec: 50e3,
		Warmup:     sim.Millisecond,
		Measure:    4 * sim.Millisecond,
		Drain:      2 * sim.Millisecond,
		Admit:      admit.Config{On: true, Policy: admit.Reroute},
		Repl:       replica.Config{On: true},
	}
	for _, m := range s.Mcns {
		ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
		srv := kvstore.NewServer(k, ep, 11211)
		cfg.Shards = append(cfg.Shards, Shard{Name: m.Node.Name, Addr: m.IP, Port: 11211, Server: srv})
	}
	cfg.Clients = []cluster.Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}}
	res := Run(k, cfg)

	if !res.ReplOn || res.Repl == nil {
		t.Fatal("replication plane did not run")
	}
	if res.Errors != 0 || res.Unfinished != 0 || res.FailedOver != 0 || res.Shed != 0 {
		t.Fatalf("healthy replicated run: errors=%d unfin=%d failover=%d shed=%d\n%s",
			res.Errors, res.Unfinished, res.FailedOver, res.Shed, res)
	}
	rc := res.ReplCounters
	if rc.Forwards == 0 || rc.Acks == 0 || rc.SyncAcks == 0 {
		t.Fatalf("no forward traffic: %s", rc.String())
	}
	if rc.SyncFailed != 0 || rc.SyncDegraded != 0 || rc.Dropped != 0 || rc.DownSkip != 0 {
		t.Fatalf("healthy run hit degraded paths: %s", rc.String())
	}
	// Post-deadline: drain the in-flight windows, sweep, diff.
	k.RunUntil(k.Now().Add(2 * sim.Millisecond))
	k.Go("test/final-sweep", func(p *sim.Proc) { res.Repl.FinalSweep(p) })
	k.RunUntil(k.Now().Add(5 * sim.Millisecond))
	for i := range cfg.Shards {
		if cfg.Shards[i].Backup == nil {
			t.Fatalf("shard %d has no backup store", i)
		}
		if d := replica.Diverged(cfg.Shards[i].Server, cfg.Shards[i].Backup); d != 0 {
			t.Fatalf("pair %d diverged by %d keys after sweep", i, d)
		}
	}
	k.Shutdown()
}

// TestReplConfigPanics pins the misconfiguration contract: replication
// demands a breaker plane, at least two shards, and a Server per shard.
func TestReplConfigPanics(t *testing.T) {
	expectPanic := func(name string, mutate func(*Config)) {
		t.Helper()
		k := sim.NewKernel()
		s := cluster.NewMcnServer(k, 2, core.MCN5.Options())
		cfg := Config{
			Seed:       1,
			Workload:   Workload{Keys: 16},
			RatePerSec: 10e3,
			Admit:      admit.Config{On: true},
			Repl:       replica.Config{On: true},
		}
		for _, m := range s.Mcns {
			ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
			srv := kvstore.NewServer(k, ep, 11211)
			cfg.Shards = append(cfg.Shards, Shard{Name: m.Node.Name, Addr: m.IP, Port: 11211, Server: srv})
		}
		cfg.Clients = []cluster.Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}}
		mutate(&cfg)
		defer func() {
			k.Shutdown()
			if recover() == nil {
				t.Errorf("%s: Run did not panic", name)
			}
		}()
		Run(k, cfg)
	}
	expectPanic("repl without admit", func(c *Config) { c.Admit = admit.Config{} })
	expectPanic("repl with one shard", func(c *Config) { c.Shards = c.Shards[:1] })
	expectPanic("repl without Server", func(c *Config) { c.Shards[0].Server = nil })
}
