package replica

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/sim"
)

// rig is a miniature replicated serving tier: n DIMMs, keyspace i's
// primary on DIMM i (port 11211+i) and its backup on DIMM (i+1) mod n
// (port 12211+i), one admission breaker per DIMM, one manager.
type rig struct {
	k        *sim.Kernel
	s        *cluster.McnServer
	ctrl     *admit.Controller
	m        *Manager
	primary  []*kvstore.Server
	backup   []*kvstore.Server
	hostEp   cluster.Endpoint
	deadline sim.Time
}

// refused points every pair's forwarder at a port nothing listens on, so
// forwards can never land.
func newRig(t *testing.T, n int, refused bool) *rig {
	t.Helper()
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, n, core.MCN5.Options())
	names := make([]string, n)
	for i := range names {
		names[i] = s.Mcns[i].Node.Name
	}
	ctrl := admit.New(k, 42, names)
	r := &rig{
		k: k, s: s, ctrl: ctrl,
		hostEp:   cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()},
		deadline: sim.Time(10 * sim.Second),
	}
	var pairs []Pair
	for i := 0; i < n; i++ {
		ep := cluster.Endpoint{Node: s.Mcns[i].Node, IP: s.Mcns[i].IP}
		r.primary = append(r.primary, kvstore.NewServer(k, ep, uint16(11211+i)))
	}
	for i := 0; i < n; i++ {
		h := (i + 1) % n
		ep := cluster.Endpoint{Node: s.Mcns[h].Node, IP: s.Mcns[h].IP}
		bport := uint16(12211 + i)
		if refused {
			bport = 9
		}
		bk := kvstore.NewServer(k, ep, uint16(12211+i))
		r.backup = append(r.backup, bk)
		pairs = append(pairs, Pair{
			Index: i, Name: names[i],
			Primary: r.primary[i], Backup: bk,
			BackupAddr: s.Mcns[h].IP, BackupPort: bport, BackupHost: h,
		})
	}
	r.m = NewManager(k, 42, ctrl, pairs)
	return r
}

// drive runs fn in a kernel process and then lets the run settle.
func (r *rig) drive(fn func(p *sim.Proc)) {
	r.k.Go("test/driver", fn)
	r.k.RunUntil(r.deadline)
}

// dial opens a client from the host to pair i's primary.
func (r *rig) dial(p *sim.Proc, i int) *kvstore.Client {
	c, err := kvstore.Dial(p, r.hostEp, r.s.Mcns[i].IP, uint16(11211+i))
	if err != nil {
		panic(err)
	}
	return c
}

func TestConfigDefaults(t *testing.T) {
	if !(Config{On: true}).Enabled() || (Config{}).Enabled() {
		t.Fatal("Enabled() wrong")
	}
}

func TestHealthyForwardsConverge(t *testing.T) {
	r := newRig(t, 2, false)
	r.drive(func(p *sim.Proc) {
		c := r.dial(p, 0)
		for i := 0; i < 20; i++ {
			if err := c.Set(p, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				panic(err)
			}
		}
		if err := c.SetSync(p, "durable", []byte("v")); err != nil {
			t.Errorf("sync set on a healthy pair: %v", err)
		}
		if ok, err := c.Delete(p, "k0"); err != nil || !ok {
			t.Error("delete failed")
		}
		c.Close(p)
	})
	got := r.m.Counters()
	if got.Forwards != 22 || got.Acks != 22 {
		t.Fatalf("forwards=%d acks=%d, want 22/22", got.Forwards, got.Acks)
	}
	if got.SyncAcks != 1 || got.SyncDegraded != 0 || got.SyncFailed != 0 {
		t.Fatalf("sync tally: %s", got.String())
	}
	if got.Dropped != 0 || got.DownSkip != 0 {
		t.Fatalf("healthy run dropped/skipped: %s", got.String())
	}
	if d := Diverged(r.primary[0], r.backup[0]); d != 0 {
		t.Fatalf("%d keys diverged after drain", d)
	}
	if r.m.FwdLat.N() != 22 {
		t.Fatalf("forward-lag histogram has %d samples", r.m.FwdLat.N())
	}
	if r.m.Pending(0) != 0 || r.m.Pending(1) != 0 {
		t.Fatal("pending forwards after drain")
	}
	r.k.Shutdown()
}

func TestPeerDownSkipsAndSyncDegrades(t *testing.T) {
	r := newRig(t, 2, false)
	// Trip DIMM 1's breaker: pair 0's backup host is no longer admitted.
	r.ctrl.OnSend(1)
	r.k.RunFor(admit.Timeout + sim.Microsecond)
	if r.ctrl.Allow(1) {
		t.Fatal("breaker did not open")
	}
	r.drive(func(p *sim.Proc) {
		c := r.dial(p, 0)
		if err := c.Set(p, "a", []byte("v")); err != nil {
			panic(err)
		}
		if err := c.SetSync(p, "b", []byte("v")); err != nil {
			t.Errorf("sync set must degrade, not fail, with the backup not admitted: %v", err)
		}
		c.Close(p)
	})
	got := r.m.Counters()
	if got.DownSkip != 2 || got.Acks != 0 {
		t.Fatalf("downskip=%d acks=%d, want 2/0", got.DownSkip, got.Acks)
	}
	if got.SyncDegraded != 1 {
		t.Fatalf("sync degrades: %s", got.String())
	}
	if d := Diverged(r.primary[0], r.backup[0]); d != 2 {
		t.Fatalf("diverged=%d, want 2 (skipped forwards)", d)
	}
	r.k.Shutdown()
}

func TestWindowOverflowDropsOldestAndSyncTimesOut(t *testing.T) {
	// Backups listen on a refused port: every forward dial RSTs, the
	// queue backs up behind the redial backoff, and the window drops.
	r := newRig(t, 2, true)
	r.drive(func(p *sim.Proc) {
		c := r.dial(p, 0)
		for i := 0; i < Window+8; i++ {
			if err := c.Set(p, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				panic(err)
			}
		}
		// The backup's host breaker is still closed (nothing ever sent to
		// it), so the sync write waits the full timeout and fails.
		if err := c.SetSync(p, "s", []byte("v")); err != kvstore.ErrUnavail {
			t.Errorf("sync set to an unreachable-but-admitted backup: err=%v, want ErrUnavail", err)
		}
		c.Close(p)
	})
	got := r.m.Counters()
	if got.Dropped == 0 {
		t.Fatalf("%d-record window never dropped: %s", Window, got.String())
	}
	if got.SyncFailed != 1 {
		t.Fatalf("sync failures: %s", got.String())
	}
	if got.Reconnects == 0 {
		t.Fatalf("refused forward dials counted no reconnects: %s", got.String())
	}
	if got.MaxPending < Window {
		t.Fatalf("max pending %d never reached the window", got.MaxPending)
	}
	r.k.Shutdown()
}

func TestStaleFailoverReadsCounted(t *testing.T) {
	r := newRig(t, 2, true)
	r.drive(func(p *sim.Proc) {
		c := r.dial(p, 0)
		if err := c.Set(p, "hot", []byte("v")); err != nil {
			panic(err)
		}
		c.Close(p)
		// The forward can never ack (refused port), so "hot" is pending:
		// a failover read of it is stale, any other key is fresh.
		r.m.NoteFailoverRead(0, "hot")
		r.m.NoteFailoverRead(0, "cold")
	})
	got := r.m.Counters()
	if got.FailoverReads != 2 || got.StaleReads != 1 {
		t.Fatalf("failover=%d stale=%d, want 2/1", got.FailoverReads, got.StaleReads)
	}
	r.k.Shutdown()
}

// tripProbeCycle drives shard i of r.ctrl through open -> half-open ->
// probes-passed, returning right after the gate held it half-open.
func tripProbeCycle(r *rig, i int) {
	r.ctrl.OnSend(i)
	r.k.RunFor(admit.Timeout + sim.Microsecond)
	r.ctrl.Allow(i) // timeout edge: opens
	r.k.RunFor(2 * admit.OpenWindow)
	r.ctrl.Allow(i) // half-open, probe 1
	r.ctrl.Allow(i) // probe 2
	r.ctrl.OnSend(i)
	r.ctrl.OnSend(i)
	r.k.RunFor(5 * sim.Microsecond)
	r.ctrl.OnComplete(i, true) // the stuck request, stale
	r.ctrl.OnComplete(i, true)
	r.ctrl.OnComplete(i, true)
}

func TestCatchUpGatesReadmission(t *testing.T) {
	r := newRig(t, 3, false)
	// Seed pair 0's backup with failover-era writes the dead primary
	// never saw (epoch 1 fences the primary's unforwarded state).
	r.drive(func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.backup[0].ApplyReplRecord(p, kvstore.ReplRecord{
				Op: kvstore.OpSet, Key: fmt.Sprintf("f%d", i), Val: []byte("failover"),
				Epoch: 1, Ver: uint64(i + 1),
			})
		}
	})
	if d := Diverged(r.primary[0], r.backup[0]); d != 5 {
		t.Fatalf("precondition: diverged=%d, want 5", d)
	}

	tripProbeCycle(r, 0)
	if r.ctrl.State(0) != admit.HalfOpen {
		t.Fatalf("gate did not hold the probed shard half-open: %v", r.ctrl.State(0))
	}
	// Let the spawned catch-up process pull, readmit, and sweep.
	r.deadline = r.deadline.Add(10 * sim.Second)
	r.k.RunUntil(r.deadline)
	if r.ctrl.State(0) != admit.Closed {
		t.Fatalf("caught-up shard not readmitted: %v", r.ctrl.State(0))
	}
	if d := Diverged(r.primary[0], r.backup[0]); d != 0 {
		t.Fatalf("diverged=%d after catch-up", d)
	}
	got := r.m.Counters()
	if got.CatchupPulls == 0 || got.CatchupRecs != 5 {
		t.Fatalf("catch-up tally: %s", got.String())
	}
	var whats []string
	for _, e := range r.m.Events() {
		if e.Pair == 0 {
			whats = append(whats, e.What)
		}
		if e.String() == "" {
			t.Fatal("event renders empty")
		}
	}
	joined := strings.Join(whats, ",")
	if !strings.HasPrefix(joined, "catchup-start,readmit") {
		t.Fatalf("event order %q, want catchup-start,readmit[,sweep]", joined)
	}
	r.k.Shutdown()
}

func TestFinalSweepHealsBothDirections(t *testing.T) {
	r := newRig(t, 2, false)
	r.drive(func(p *sim.Proc) {
		// Divergence in both directions, injected behind the forwarders'
		// backs: a record only the primary has, one only the backup has.
		r.primary[0].ApplyReplRecord(p, kvstore.ReplRecord{
			Op: kvstore.OpSet, Key: "p-only", Val: []byte("v"), Epoch: 0, Ver: 1,
		})
		r.backup[0].ApplyReplRecord(p, kvstore.ReplRecord{
			Op: kvstore.OpSet, Key: "b-only", Val: []byte("v"), Epoch: 1, Ver: 1,
		})
	})
	if d := Diverged(r.primary[0], r.backup[0]); d != 2 {
		t.Fatalf("precondition diverged=%d", d)
	}
	r.k.Go("sweep", func(p *sim.Proc) { r.m.FinalSweep(p) })
	r.deadline = r.deadline.Add(5 * sim.Second)
	r.k.RunUntil(r.deadline)
	if d := Diverged(r.primary[0], r.backup[0]); d != 0 {
		t.Fatalf("diverged=%d after FinalSweep", d)
	}
	r.k.Shutdown()
}

func TestPublishRegistersTelemetry(t *testing.T) {
	r := newRig(t, 2, false)
	r.drive(func(p *sim.Proc) {
		c := r.dial(p, 0)
		if err := c.Set(p, "k", []byte("v")); err != nil {
			panic(err)
		}
		c.Close(p)
	})
	reg := obs.NewRegistry()
	r.m.Publish(reg)
	snap := reg.Snapshot(r.k.Now())
	if v, ok := snap.Value("repl/forwards"); !ok || v != 1 {
		t.Fatalf("repl/forwards = %d (present=%v), want 1", v, ok)
	}
	if v, ok := snap.Value("repl/acks"); !ok || v != 1 {
		t.Fatalf("repl/acks = %d (present=%v), want 1", v, ok)
	}
	if _, ok := snap.Value("repl/pair/1/pending"); !ok {
		t.Fatal("per-pair pending gauge missing")
	}
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "repl/forward_lag" && m.HDR != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("repl/forward_lag HDR missing from snapshot")
	}
	r.k.Shutdown()
}
