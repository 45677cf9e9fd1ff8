// Package replica is the shard-replication plane of the serving tier:
// R=2 primary/backup placement across DIMM shards with deterministic
// failover and recovery, so a whole-DIMM outage serves 100% of keys
// instead of shedding the dead shard's slice of the keyspace.
//
// Placement puts keyspace i's primary store on DIMM i and its backup
// store on DIMM (i+1) mod N — every node hosts one primary and one
// neighbor's backup, so one DIMM dying never takes both replicas of any
// key. Writes apply at the primary and are forwarded primary->backup
// over the memory channel by a per-pair forwarder process: async by
// default inside a bounded in-flight window (overflow drops the oldest
// record, to be healed by anti-entropy), or synchronously when the
// request carries kvstore.SyncFlag — the ack is then held until the
// backup confirmed, the backup's breaker said it is not admitted
// (durable at every currently-admitted replica), or the deadline
// passed (StatusUnavail).
//
// Recovery is seeded-deterministic anti-entropy. When a returning
// DIMM's half-open probes pass, the admission controller's readmission
// gate holds it half-open (admit.ReasonAwaitingGate) while the manager
// pulls a versioned delta stream — per-key (epoch, ver), journal-
// ordered, chunked — from the surviving replica into the returning
// primary; only then does Readmit close the breaker, after which one
// sweep pull catches the failover writes that raced the gate and the
// node's resident backup store is healed the same way. Every retry
// delay comes from a splitmix64 stream derived from the run seed and
// the pair name, and every pull walks the peer's journal in apply
// order, so a replay at the same seed reproduces the replication
// timeline byte-for-byte.
package replica

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Config switches the replication plane on; the zero value (On=false)
// disables it.
type Config struct {
	// On enables replication.
	On bool
}

// Enabled reports whether replication is on.
func (c Config) Enabled() bool { return c.On }

// The replication plane's tuning.
const (
	// Window bounds the per-pair forward queue: the async staleness
	// bound, in records. Overflow drops the oldest queued record —
	// anti-entropy heals it later.
	Window = 32
	// syncTimeout is how long a SyncFlag write waits for the backup ack
	// before degrading (backup not admitted) or failing with
	// StatusUnavail.
	syncTimeout = sim.Millisecond
	// retryBase is the base backoff between forward-connection redials
	// and catch-up pull retries, jittered from the pair's seeded stream.
	retryBase = 200 * sim.Microsecond
	// BackupPortOffset is the backup store's listening-port offset from
	// its keyspace's primary port.
	BackupPortOffset = 1000
)

// Pair wires one keyspace's two replicas into the manager. Index is the
// keyspace (and primary host) shard index; BackupHost is the admission
// index of the node hosting the backup store — its breaker state is the
// "is the backup reachable" oracle for sync degrades and down-skips.
type Pair struct {
	Index      int
	Name       string
	Primary    *kvstore.Server
	Backup     *kvstore.Server
	BackupAddr netstack.IP
	BackupPort uint16
	BackupHost int
}

// fwdItem is one queued primary->backup forward.
type fwdItem struct {
	rec   kvstore.ReplRecord
	enq   sim.Time
	acked bool
	done  *sim.Signal // non-nil for sync items; notified on ack or drop
}

// pairState is one pair's runtime state.
type pairState struct {
	Pair
	queue    []*fwdItem
	inflight *fwdItem
	pending  map[string]int // keys with a forward not yet acked
	wake     *sim.Signal
	conn     *netstack.TCPConn
	jit      sim.RNG
	// caughtUp gates the primary host's readmission: cleared when its
	// breaker opens, set again when the gating catch-up pull converges.
	caughtUp bool
	// primSyncedTo / backupSyncedTo are journal watermarks: how far the
	// primary has pulled from the backup store's journal and vice versa.
	// They persist across flaps so repeated catch-ups stream only deltas.
	primSyncedTo, backupSyncedTo uint64
	catchups                     int // spawned catch-up processes (names the next one)
}

// Manager owns the replication plane of one run: the per-pair
// forwarders, the readmission gate and its catch-up processes, and the
// replication telemetry.
type Manager struct {
	k        *sim.Kernel
	ctrl     *admit.Controller
	pairs    []*pairState
	counters stats.ReplCounters
	events   []stats.ReplEvent
	// FwdLat is the forward-path latency histogram (enqueue to backup
	// ack, ns) — the measured replication lag.
	FwdLat stats.HDR
	// tl, when set, receives the aggregate forward-backlog gauge at
	// every backlog mutation (nil-safe, zero-perturbation).
	tl *obs.Timeline
}

// SetTimeline attaches a timeline to sample the total forward backlog
// (queued + in-flight records across all pairs) as the "repl/backlog"
// gauge; nil detaches.
func (m *Manager) SetTimeline(tl *obs.Timeline) { m.tl = tl }

// noteBacklog samples the aggregate backlog into the timeline.
func (m *Manager) noteBacklog(at sim.Time) {
	if m.tl == nil {
		return
	}
	var total int64
	for i := range m.pairs {
		total += int64(m.Pending(i))
	}
	m.tl.Sample("repl/backlog", at, total)
}

// NewManager builds the replication plane over the given pairs, hooks
// the primaries' forwarders, installs the readmission gate and observer
// on ctrl, and starts one forwarder process per pair. seed keys every
// retry-jitter stream.
func NewManager(k *sim.Kernel, seed uint64, ctrl *admit.Controller, pairs []Pair) *Manager {
	m := &Manager{k: k, ctrl: ctrl}
	for _, pr := range pairs {
		ps := &pairState{
			Pair:     pr,
			pending:  make(map[string]int),
			wake:     k.NewSignal(),
			jit:      sim.NewRNG(seed, "repl/"+pr.Name),
			caughtUp: true,
		}
		m.pairs = append(m.pairs, ps)
		pr.Primary.SetForwarder(&pairFwd{m: m, ps: ps})
		k.Go(fmt.Sprintf("repl/fwd/%d", pr.Index), func(p *sim.Proc) { m.forwarder(p, ps) })
	}
	ctrl.SetGate(m.gate)
	ctrl.SetObserver(m.observe)
	return m
}

// Counters returns the replication tally so far.
func (m *Manager) Counters() stats.ReplCounters { return m.counters }

// Events returns the replication timeline in event order. The slice is
// the manager's own; callers must not mutate it.
func (m *Manager) Events() []stats.ReplEvent { return m.events }

// Pending returns how many forwards a pair still holds unacked.
func (m *Manager) Pending(pair int) int {
	ps := m.pairs[pair]
	n := len(ps.queue)
	if ps.inflight != nil {
		n++
	}
	return n
}

// event records one replication-plane transition.
func (m *Manager) event(ps *pairState, what, detail string) {
	m.events = append(m.events, stats.ReplEvent{
		Pair: ps.Index, Name: ps.Name, T: m.k.Now(), What: what, Detail: detail,
	})
}

// gate is the admission controller's readmission gate: a primary host
// whose probes passed stays half-open until its keyspace caught up.
func (m *Manager) gate(shard int) bool {
	if shard >= len(m.pairs) {
		return true
	}
	return m.pairs[shard].caughtUp
}

// observe reacts to breaker transitions: an open marks the pair's
// primary stale (failover writes will land at the backup under a new
// epoch), and the gated-readmission event spawns the catch-up process.
func (m *Manager) observe(e stats.HealthEvent) {
	if e.Shard >= len(m.pairs) {
		return
	}
	ps := m.pairs[e.Shard]
	switch {
	case e.To == "open":
		ps.caughtUp = false
	case e.Reason == admit.ReasonAwaitingGate:
		ps.catchups++
		m.k.Go(fmt.Sprintf("repl/catchup/%d/%d", ps.Index, ps.catchups), func(p *sim.Proc) {
			m.catchUp(p, ps)
		})
	}
}

// peerDown reports whether the pair's backup host is not currently
// admitted — the oracle for down-skips and sync degrades.
func (m *Manager) peerDown(ps *pairState) bool {
	return m.ctrl.State(ps.BackupHost) != admit.Closed
}

// retryDelay draws one jittered backoff from the pair's seeded stream.
func (m *Manager) retryDelay(ps *pairState) sim.Duration {
	return retryBase + sim.Duration(float64(retryBase)*ps.jit.Float64())
}

// pairFwd adapts one pair to the kvstore.Forwarder hook.
type pairFwd struct {
	m  *Manager
	ps *pairState
}

// Forward queues one locally-applied primary write for the backup. Async
// forwards return immediately (dropping the oldest queued record when
// the window is full); sync forwards block until the ack, a degrade, or
// the deadline. Forwards toward a non-admitted backup are skipped
// outright — anti-entropy heals them when the backup's host returns.
func (f *pairFwd) Forward(p *sim.Proc, rec kvstore.ReplRecord, sync bool) bool {
	m, ps := f.m, f.ps
	m.counters.Forwards++
	if m.peerDown(ps) {
		m.counters.DownSkip++
		if sync {
			m.counters.SyncDegraded++
		}
		return true
	}
	it := &fwdItem{rec: rec, enq: p.Now()}
	if sync {
		it.done = m.k.NewSignal()
	}
	if len(ps.queue) >= Window {
		old := ps.queue[0]
		ps.queue = ps.queue[1:]
		ps.unpend(old.rec.Key)
		m.counters.Dropped++
		if old.done != nil {
			old.done.Notify() // acked stays false: the waiter fails fast
		}
	}
	ps.queue = append(ps.queue, it)
	ps.pend(rec.Key)
	if n := int64(m.Pending(ps.Index)); n > m.counters.MaxPending {
		m.counters.MaxPending = n
	}
	m.noteBacklog(p.Now())
	ps.wake.Notify()
	if !sync {
		return true
	}
	woke := it.done.WaitTimeout(p, syncTimeout)
	if woke && it.acked {
		m.counters.SyncAcks++
		return true
	}
	if m.peerDown(ps) {
		// The backup died with the ack pending: the write is durable at
		// every replica the router still admits.
		m.counters.SyncDegraded++
		return true
	}
	m.counters.SyncFailed++
	return false
}

func (ps *pairState) pend(key string) { ps.pending[key]++ }
func (ps *pairState) unpend(key string) {
	if ps.pending[key]--; ps.pending[key] <= 0 {
		delete(ps.pending, key)
	}
}

// NoteFailoverRead records one read served by the pair's backup store,
// counting it stale when a forward for the key is still unacked.
func (m *Manager) NoteFailoverRead(pair int, key string) {
	m.counters.FailoverReads++
	if m.pairs[pair].pending[key] > 0 {
		m.counters.StaleReads++
	}
}

// forwarder is the per-pair forward process: it drains the queue one
// record at a time over a lazily-dialed connection to the backup store,
// acking each before the next. A send or ack failure redials after a
// seeded backoff with the record still at the head (versioned applies
// make resends idempotent). During a backup outage the process simply
// blocks in the ack read until TCP's retransmissions land post-recovery.
func (m *Manager) forwarder(p *sim.Proc, ps *pairState) {
	var hdr [kvstore.RespHeaderBytes]byte
	for {
		if ps.inflight == nil {
			if len(ps.queue) == 0 {
				ps.wake.Wait(p)
				continue
			}
			ps.inflight = ps.queue[0]
			ps.queue = ps.queue[1:]
		}
		if ps.conn == nil {
			c, err := ps.Primary.Endpoint().Node.Stack.Connect(p, ps.BackupAddr, ps.BackupPort)
			if err != nil {
				m.counters.Reconnects++
				p.Sleep(m.retryDelay(ps))
				continue
			}
			ps.conn = c
		}
		it := ps.inflight
		op := byte(kvstore.OpReplSet)
		if it.rec.Op == kvstore.OpDelete {
			op = kvstore.OpReplDelete
		}
		buf := kvstore.AppendReplRequest(nil, op, it.rec.Key, it.rec.Val, it.rec.Epoch, it.rec.Ver)
		if err := ps.conn.Send(p, buf); err != nil {
			ps.redial(p, m)
			continue
		}
		if !netstack.ReadFull(p, ps.conn, hdr[:]) {
			ps.redial(p, m)
			continue
		}
		ps.inflight = nil
		ps.unpend(it.rec.Key)
		m.counters.Acks++
		m.noteBacklog(p.Now())
		m.FwdLat.RecordDuration(p.Now().Sub(it.enq))
		if it.done != nil {
			it.acked = true
			it.done.Notify()
		}
	}
}

// redial drops the forward connection after a failure and backs off; the
// in-flight record stays put for the retry.
func (ps *pairState) redial(p *sim.Proc, m *Manager) {
	ps.conn.Close(p)
	ps.conn = nil
	m.counters.Reconnects++
	p.Sleep(m.retryDelay(ps))
}

// catchUp heals a returning primary host: pull the keyspace's delta from
// the backup store (the gating pull), readmit the shard, sweep once more
// for the failover writes that raced the gate, then heal the node's
// resident backup store (the previous keyspace) from its primary. Pulls
// retry forever on a seeded backoff — the kernel's run deadline bounds
// the process, and a peer dying mid-catch-up reopens the breaker and
// spawns a fresh catch-up anyway.
func (m *Manager) catchUp(p *sim.Proc, ps *pairState) {
	m.event(ps, "catchup-start", fmt.Sprintf("after=%d", ps.primSyncedTo))
	n := m.pull(p, ps, ps.Primary, ps.BackupAddr, ps.BackupPort, &ps.primSyncedTo)
	ps.caughtUp = true
	m.ctrl.Readmit(ps.Index)
	m.event(ps, "readmit", fmt.Sprintf("%d recs", n))
	n = m.pull(p, ps, ps.Primary, ps.BackupAddr, ps.BackupPort, &ps.primSyncedTo)
	if n > 0 {
		m.event(ps, "sweep", fmt.Sprintf("%d recs", n))
	}
	// The backup store resident on this node belongs to the previous
	// keyspace; its forwards were skipped while the node was down.
	prev := m.pairs[(ps.Index-1+len(m.pairs))%len(m.pairs)]
	sh := prev.Primary.Endpoint()
	n = m.pull(p, prev, prev.Backup, sh.IP, prev.primaryPort(), &prev.backupSyncedTo)
	if n > 0 {
		m.event(prev, "backup-heal", fmt.Sprintf("%d recs", n))
	}
}

// primaryPort is the primary store's listening port.
func (ps *pairState) primaryPort() uint16 { return ps.Primary.Port() }

// FinalSweep runs one anti-entropy pass over every pair in both
// directions — the end-of-run convergence close-out a determinism test
// performs (after letting the forward queues drain) before comparing
// version maps with Diverged.
func (m *Manager) FinalSweep(p *sim.Proc) {
	for _, ps := range m.pairs {
		m.pull(p, ps, ps.Primary, ps.BackupAddr, ps.BackupPort, &ps.primSyncedTo)
		sh := ps.Primary.Endpoint()
		m.pull(p, ps, ps.Backup, sh.IP, ps.primaryPort(), &ps.backupSyncedTo)
	}
}

// pull streams the peer's journal delta after *mark into dst, advancing
// the watermark, and returns how many records the peer shipped. It dials
// from dst's own node (the puller is always the store being healed) and
// retries failures on the pair's seeded backoff until the kernel
// deadline cuts it off.
func (m *Manager) pull(p *sim.Proc, ps *pairState, dst *kvstore.Server, addr netstack.IP, port uint16, mark *uint64) int {
	total := 0
	for {
		conn, err := dst.Endpoint().Node.Stack.Connect(p, addr, port)
		if err != nil {
			p.Sleep(m.retryDelay(ps))
			continue
		}
		n, ok := m.pullConn(p, conn, dst, mark)
		total += n
		conn.Close(p)
		if ok {
			return total
		}
		p.Sleep(m.retryDelay(ps))
	}
}

// pullConn runs the delta loop on one connection; ok=false means the
// connection died mid-stream and the caller should redial (the watermark
// only advances past fully-applied chunks, so a retry is idempotent).
func (m *Manager) pullConn(p *sim.Proc, conn *netstack.TCPConn, dst *kvstore.Server, mark *uint64) (int, bool) {
	var hdr [kvstore.RespHeaderBytes]byte
	total := 0
	for {
		after := *mark
		if err := conn.Send(p, kvstore.AppendDeltaRequest(nil, after)); err != nil {
			return total, false
		}
		if !netstack.ReadFull(p, conn, hdr[:]) {
			return total, false
		}
		_, vl, _ := kvstore.ParseRespHeader(hdr[:])
		payload := make([]byte, vl)
		if !netstack.ReadFull(p, conn, payload) {
			return total, false
		}
		through, recs, ok := kvstore.ParseDelta(payload)
		if !ok {
			return total, false
		}
		m.counters.CatchupPulls++
		m.counters.CatchupRecs += int64(len(recs))
		for _, r := range recs {
			dst.ApplyReplRecord(p, r)
		}
		total += len(recs)
		if len(recs) == 0 && through == after {
			return total, true
		}
		*mark = through
	}
}

// Publish registers the replication telemetry in the metrics registry.
func (m *Manager) Publish(reg *obs.Registry) {
	c := &m.counters
	reg.GaugeFunc("repl/forwards", func() int64 { return c.Forwards })
	reg.GaugeFunc("repl/acks", func() int64 { return c.Acks })
	reg.GaugeFunc("repl/dropped", func() int64 { return c.Dropped })
	reg.GaugeFunc("repl/downskip", func() int64 { return c.DownSkip })
	reg.GaugeFunc("repl/max_pending", func() int64 { return c.MaxPending })
	reg.GaugeFunc("repl/sync/acks", func() int64 { return c.SyncAcks })
	reg.GaugeFunc("repl/sync/degraded", func() int64 { return c.SyncDegraded })
	reg.GaugeFunc("repl/sync/failed", func() int64 { return c.SyncFailed })
	reg.GaugeFunc("repl/catchup/pulls", func() int64 { return c.CatchupPulls })
	reg.GaugeFunc("repl/catchup/records", func() int64 { return c.CatchupRecs })
	reg.GaugeFunc("repl/failover_reads", func() int64 { return c.FailoverReads })
	reg.GaugeFunc("repl/stale_reads", func() int64 { return c.StaleReads })
	reg.RegisterHDR("repl/forward_lag", &m.FwdLat)
	for _, ps := range m.pairs {
		ps := ps
		reg.GaugeFunc(fmt.Sprintf("repl/pair/%d/pending", ps.Index), func() int64 {
			return int64(m.Pending(ps.Index))
		})
	}
}

// Diverged counts keys whose replication version differs between the
// two stores of a pair (tombstones included) — 0 means converged.
func Diverged(primary, backup *kvstore.Server) int {
	pv, bv := primary.Versions(), backup.Versions()
	n := 0
	for k, v := range pv {
		if bv[k] != v {
			n++
		}
	}
	for k := range bv {
		if _, ok := pv[k]; !ok {
			n++
		}
	}
	return n
}
