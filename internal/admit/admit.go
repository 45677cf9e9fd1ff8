// Package admit is the admission-control plane of the serving tier: a
// deterministic, seed-driven shard-health tracker that sits between the
// load driver and the consistent-hash router. One Controller watches every
// shard through the telemetry the connections already produce — service
// latency completions, outstanding-request age, connection errors — and
// drives a three-state breaker per shard:
//
//	closed ──timeout/error edge──▶ open ──window expires──▶ half-open
//	  ▲                                                        │
//	  └──────────── probe successes ◀──────────────────────────┘
//	               (probe failure reopens with doubled window)
//
// While a shard is open the router either sheds its requests (fast-fail
// with a distinct status) or re-routes them to the next vnode owner, so
// the fault-time tail is bounded at the router instead of riding the TCP
// retransmission timeout. Every decision is made on the simulation clock
// and the only randomness — the jitter on each open window — comes from a
// splitmix64 stream derived from the run seed and the shard name, so a
// replay at the same seed reproduces the breaker event trace exactly.
package admit

import (
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// State is one breaker position.
type State int

const (
	// Closed admits everything (the healthy steady state).
	Closed State = iota
	// Open admits nothing until the backoff window expires.
	Open
	// HalfOpen admits a bounded number of probe requests whose outcomes
	// decide between reopening and closing.
	HalfOpen
)

// String renders the state the way the health timeline spells it.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Policy selects what the router does with a request whose shard is open.
type Policy int

const (
	// Reroute sends the request to the next healthy vnode owner on the
	// ring (a cache miss there beats an RTO wait); if every candidate is
	// open the request is shed.
	Reroute Policy = iota
	// Shed fast-fails the request at the router with a distinct status.
	Shed
)

// String names the policy.
func (p Policy) String() string {
	if p == Shed {
		return "shed"
	}
	return "reroute"
}

// Config switches the controller on and picks its policy; the zero value
// (On=false) disables admission control entirely.
type Config struct {
	// On enables the controller.
	On bool
	// Policy picks shed vs re-route for requests to open shards.
	Policy Policy
}

// Enabled reports whether admission control is on.
func (c Config) Enabled() bool { return c.On }

// The breaker's tuning.
const (
	// Timeout is the outstanding-request age that counts as a timeout
	// edge: a shard with a request on the wire for this long is treated
	// as unresponsive. It sits well above the healthy service tail and
	// well below the netstack's RTO. One timeout or error edge trips a
	// closed breaker.
	Timeout = 200 * sim.Microsecond
	// OpenWindow is the first open window; each consecutive reopen
	// doubles it up to maxWindow.
	OpenWindow = sim.Millisecond
	maxWindow  = 8 * sim.Millisecond
	// jitterFrac spreads each open window by +-this fraction, drawn from
	// the per-shard seeded stream. Jitter decorrelates probe schedules
	// across shards without breaking replay determinism.
	jitterFrac = 0.1
	// probeQuota is how many consecutive half-open probes must complete
	// OK before the breaker closes.
	probeQuota = 2
)

// tracker is one shard's health state.
type tracker struct {
	shard int
	name  string
	state State
	// barrier marks the last state transition: outstanding entries sent
	// before it are stale (their fate was already judged) and never count
	// a second timeout edge or probe outcome.
	barrier sim.Time
	// outstanding[head:] holds the send time of every request on the
	// wire, in send order (connections complete FIFO per shard). Popping
	// advances head instead of re-slicing, so OnSend's append reuses the
	// backing array.
	outstanding []sim.Time
	head        int
	cycles      int // consecutive opens (drives the backoff doubling)
	reopenAt    sim.Time
	probes      int  // half-open probes in flight
	probeOKs    int  // consecutive successful probes this half-open window
	gated       bool // probes passed but the readmission gate said not yet
	jit         sim.RNG
}

// Controller tracks every shard's health and answers admission queries.
// It is driven entirely by the simulation's event loop (no goroutines, no
// wall clock), so its decision and event sequence replays exactly.
type Controller struct {
	k        *sim.Kernel
	trackers []*tracker
	events   []stats.HealthEvent
	counters stats.AdmitCounters
	start    sim.Time

	// observer, when set, sees every health event as it is recorded —
	// the replication plane's hook for reacting to breaker transitions
	// (failover on open, catch-up on the gated-readmission event).
	observer func(stats.HealthEvent)
	// gate, when set, is consulted before a shard that passed its
	// half-open probes is closed: probes prove liveness, the gate proves
	// readiness (for a replicated shard, that anti-entropy catch-up
	// converged). A gated shard stays half-open — emitting one
	// ReasonAwaitingGate self-transition — until Readmit closes it.
	gate func(shard int) bool
}

// ReasonAwaitingGate is the health-timeline reason recorded when a
// shard's probes all passed but the readmission gate held it half-open;
// ReasonReadmitted is the close reason when Readmit then admits it.
const (
	ReasonAwaitingGate = "probes ok, awaiting catch-up"
	ReasonReadmitted   = "catch-up complete"
)

// SetObserver registers the health-event observer (nil detaches). The
// observer runs synchronously inside the recording call, so it must not
// block; spawn a process for real work.
func (c *Controller) SetObserver(f func(stats.HealthEvent)) { c.observer = f }

// SetGate registers the readmission gate (nil detaches: probes alone
// close the breaker, the pre-replication behavior).
func (c *Controller) SetGate(f func(shard int) bool) { c.gate = f }

// New builds a controller for the named shards. The run seed plus each
// shard's name derives that shard's jitter stream, so topologies with the
// same shard names replay identically at the same seed.
func New(k *sim.Kernel, seed uint64, names []string) *Controller {
	c := &Controller{k: k, start: k.Now()}
	for i, name := range names {
		c.trackers = append(c.trackers, &tracker{
			shard: i, name: name,
			jit: sim.NewRNG(seed, "admit/"+name),
		})
	}
	return c
}

// State returns a shard's current breaker state.
func (c *Controller) State(shard int) State { return c.trackers[shard].state }

// Counters returns the admission tally so far.
func (c *Controller) Counters() stats.AdmitCounters { return c.counters }

// Events returns the breaker transition timeline in event order. The slice
// is the controller's own; callers must not mutate it.
func (c *Controller) Events() []stats.HealthEvent { return c.events }

// event records one transition.
func (c *Controller) event(t *tracker, from, to State, reason string) {
	t.state = to
	t.barrier = c.k.Now()
	e := stats.HealthEvent{
		Shard: t.shard, Name: t.name, T: c.k.Now(),
		From: from.String(), To: to.String(), Reason: reason,
	}
	c.events = append(c.events, e)
	if c.observer != nil {
		c.observer(e)
	}
}

// open trips the breaker (from closed or half-open): the window doubles
// with each consecutive cycle, capped at maxWindow, and is jittered by
// the shard's seeded stream.
func (c *Controller) open(t *tracker, reason string) {
	from := t.state
	window := OpenWindow
	for i := 0; i < t.cycles && window < maxWindow; i++ {
		window *= 2
	}
	if window > maxWindow {
		window = maxWindow
	}
	jitter := jitterFrac * (2*t.jit.Float64() - 1)
	window += sim.Duration(float64(window) * jitter)
	t.cycles++
	t.reopenAt = c.k.Now().Add(window)
	t.probes = 0
	t.probeOKs = 0
	t.gated = false
	c.counters.Opens++
	c.event(t, from, Open, reason)
}

// halfOpen starts the probe window.
func (c *Controller) halfOpen(t *tracker) {
	t.probes = 0
	t.probeOKs = 0
	c.counters.HalfOpens++
	c.event(t, Open, HalfOpen, "window expired")
}

// close readmits the shard and resets the backoff.
func (c *Controller) close(t *tracker, reason string) {
	t.cycles = 0
	t.gated = false
	c.counters.Closes++
	c.event(t, HalfOpen, Closed, reason)
}

// Readmit closes a half-open shard the gate was holding back — the
// replication plane calls it when catch-up converges. It is a no-op
// unless the shard is half-open with its probe budget already passed.
func (c *Controller) Readmit(shard int) {
	t := c.trackers[shard]
	if t.state == HalfOpen && t.probeOKs >= probeQuota {
		c.close(t, ReasonReadmitted)
	}
}

// edge registers one timeout or error edge: it trips a closed breaker,
// and a failed probe window reopens immediately with a longer window.
// Edges from stale traffic change nothing while open.
func (c *Controller) edge(t *tracker, reason string) {
	if t.state != Open {
		c.open(t, reason)
	}
}

// checkTimeout counts a timeout edge when the shard's oldest live
// outstanding request has been on the wire longer than Timeout. Entries
// sent before the last state transition are stale — they were already
// judged when the breaker tripped — so only post-transition traffic (new
// sends, half-open probes) can trip it again.
func (c *Controller) checkTimeout(t *tracker) {
	now := c.k.Now()
	for _, sent := range t.outstanding[t.head:] {
		if sent < t.barrier {
			continue
		}
		if now.Sub(sent) > Timeout {
			c.edge(t, "timeout")
		}
		return
	}
}

// Allow is the admission query for one request to one shard: true admits.
// It also advances the shard's state machine on the simulation clock —
// timeout edges are detected here (arrivals are frequent, so detection
// latency is bounded by the arrival gap) and open windows expire here.
func (c *Controller) Allow(shard int) bool {
	t := c.trackers[shard]
	c.checkTimeout(t)
	switch t.state {
	case Closed:
		return true
	case Open:
		if c.k.Now() < t.reopenAt {
			return false
		}
		c.halfOpen(t)
		fallthrough
	default: // HalfOpen
		if t.probes < probeQuota-t.probeOKs {
			t.probes++
			c.counters.Probes++
			return true
		}
		return false
	}
}

// DwellTimes integrates the shard's breaker timeline up to now: how long
// it has spent closed, open, and half-open since the controller started.
// Replication failover windows read straight off the open dwell — the
// obs registry exports these as gauges so `-metrics` shows them.
func (c *Controller) DwellTimes(shard int, now sim.Time) (closed, open, halfOpen sim.Duration) {
	t := c.trackers[shard]
	state := Closed
	last := c.start
	add := func(until sim.Time) {
		d := until.Sub(last)
		switch state {
		case Open:
			open += d
		case HalfOpen:
			halfOpen += d
		default:
			closed += d
		}
	}
	for _, e := range c.events {
		if e.Shard != t.shard {
			continue
		}
		add(e.T)
		last = e.T
		switch e.To {
		case "open":
			state = Open
		case "half-open":
			state = HalfOpen
		default:
			state = Closed
		}
	}
	add(now)
	return closed, open, halfOpen
}

// NoteShed records a request shed because every candidate shard was open.
func (c *Controller) NoteShed() { c.counters.Shed++ }

// NoteReroute records a request moved off an open shard.
func (c *Controller) NoteReroute() { c.counters.Rerouted++ }

// OnSend records that one admitted request reached the wire. Every OnSend
// must be matched by exactly one OnComplete.
func (c *Controller) OnSend(shard int) {
	t := c.trackers[shard]
	if t.head > 0 && len(t.outstanding) == cap(t.outstanding) {
		n := copy(t.outstanding, t.outstanding[t.head:])
		t.outstanding, t.head = t.outstanding[:n], 0
	}
	t.outstanding = append(t.outstanding, c.k.Now())
}

// OnComplete records the outcome of one sent request: ok, or a failure
// (response error or the connection dying with the request in flight).
// Completions of requests sent before the last breaker transition are
// stale: they never count as probe outcomes or fresh error edges.
func (c *Controller) OnComplete(shard int, ok bool) {
	t := c.trackers[shard]
	if t.head == len(t.outstanding) {
		return
	}
	sent := t.outstanding[t.head]
	t.head++
	if t.head == len(t.outstanding) {
		t.outstanding, t.head = t.outstanding[:0], 0
	}
	if sent < t.barrier {
		return
	}
	switch {
	case !ok:
		c.edge(t, "error")
	case t.state == HalfOpen:
		t.probes--
		t.probeOKs++
		if t.probeOKs >= probeQuota {
			if c.gate != nil && !c.gate(t.shard) {
				// Liveness proven, readiness not: hold the shard
				// half-open until Readmit. The self-transition marks the
				// timeline (and wakes the observer) exactly once.
				if !t.gated {
					t.gated = true
					c.event(t, HalfOpen, HalfOpen, ReasonAwaitingGate)
				}
				return
			}
			c.close(t, "probes ok")
		}
	}
}

// OnError records a failure with nothing on the wire (a dead connection
// rejecting a request before send). It counts an error edge directly.
func (c *Controller) OnError(shard int) {
	c.edge(c.trackers[shard], "error")
}
