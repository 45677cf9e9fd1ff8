package admit

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// newTest builds a controller over two shards.
func newTest(seed uint64) (*sim.Kernel, *Controller) {
	k := sim.NewKernel()
	return k, New(k, seed, []string{"shard-a", "shard-b"})
}

func TestDefaults(t *testing.T) {
	if !(Config{On: true}).Enabled() {
		t.Fatal("On=true not Enabled")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("state names changed; the health timeline depends on them")
	}
	if Reroute.String() != "reroute" || Shed.String() != "shed" {
		t.Fatal("policy names changed")
	}
}

func TestHealthyTrafficStaysClosed(t *testing.T) {
	k, c := newTest(1)
	for i := 0; i < 1000; i++ {
		if !c.Allow(0) {
			t.Fatalf("healthy shard denied at request %d", i)
		}
		c.OnSend(0)
		k.RunFor(10 * sim.Microsecond) // well under the 200us timeout
		c.OnComplete(0, true)
	}
	if c.State(0) != Closed {
		t.Fatalf("healthy shard left closed: state=%v", c.State(0))
	}
	if len(c.Events()) != 0 {
		t.Fatalf("healthy run produced %d breaker events", len(c.Events()))
	}
	if c.Counters().Opens != 0 {
		t.Fatalf("healthy counters: %+v", c.Counters())
	}
}

func TestTimeoutOpensAndProbesClose(t *testing.T) {
	k, c := newTest(2)

	// A request goes out and never comes back: the next Allow after
	// Timeout must count the edge and open the breaker.
	c.OnSend(0)
	k.RunFor(Timeout + sim.Microsecond)
	if c.Allow(0) {
		t.Fatal("post-timeout Allow admitted; the edge must open the breaker before the verdict")
	}
	if c.State(0) != Open {
		t.Fatalf("state after timeout edge = %v, want open", c.State(0))
	}
	if c.Allow(0) {
		t.Fatal("open breaker admitted a request")
	}
	if c.Allow(1) != true {
		t.Fatal("shard-b breaker tripped by shard-a's timeout")
	}

	// Before the window expires: still denied.
	k.RunFor(OpenWindow / 2)
	if c.Allow(0) {
		t.Fatal("open breaker admitted before the window expired")
	}

	// After the (jittered) window: half-open, probes admitted up to the
	// success quota, further traffic denied.
	k.RunFor(OpenWindow)
	if !c.Allow(0) {
		t.Fatal("expired window denied the first probe")
	}
	if c.State(0) != HalfOpen {
		t.Fatalf("state after window = %v, want half-open", c.State(0))
	}
	if !c.Allow(0) {
		t.Fatal("second probe denied (quota is probeQuota)")
	}
	if c.Allow(0) {
		t.Fatal("probe quota not enforced")
	}

	// Both probes complete fast: the breaker closes and backoff resets.
	// The connection is FIFO, so the originally stuck request's RTO-style
	// completion arrives first; being stale it must not count as a probe.
	c.OnSend(0)
	c.OnSend(0)
	k.RunFor(5 * sim.Microsecond)
	c.OnComplete(0, true)
	if c.State(0) != HalfOpen {
		t.Fatalf("stale completion moved state to %v", c.State(0))
	}
	c.OnComplete(0, true)
	c.OnComplete(0, true)
	if c.State(0) != Closed {
		t.Fatalf("state after successful probes = %v, want closed", c.State(0))
	}
	got := c.Counters()
	if got.Opens != 1 || got.HalfOpens != 1 || got.Closes != 1 || got.Probes != 2 {
		t.Fatalf("counters after one cycle: %+v", got)
	}
	// closed->open, open->half-open, half-open->closed.
	if len(c.Events()) != 3 {
		t.Fatalf("event trace has %d entries, want 3: %v", len(c.Events()), c.Events())
	}
	if e := c.Events()[0]; e.From != "closed" || e.To != "open" || e.Reason != "timeout" || e.Shard != 0 {
		t.Fatalf("first event %+v", e)
	}
}

func TestProbeTimeoutReopensWithBackoff(t *testing.T) {
	k, c := newTest(3)

	// Trip the breaker with a stuck request.
	c.OnSend(0)
	k.RunFor(Timeout * 2)
	c.Allow(0)
	if c.State(0) != Open {
		t.Fatal("setup: breaker not open")
	}
	firstWindow := c.trackers[0].reopenAt.Sub(k.Now())

	// Window expires; the probe goes out and also gets stuck.
	k.RunUntil(c.trackers[0].reopenAt.Add(sim.Microsecond))
	if !c.Allow(0) {
		t.Fatal("probe denied")
	}
	c.OnSend(0)
	k.RunFor(Timeout + sim.Microsecond)
	c.Allow(0) // detects the stuck probe, reopens
	if c.State(0) != Open {
		t.Fatalf("stuck probe left state %v, want open", c.State(0))
	}
	secondWindow := c.trackers[0].reopenAt.Sub(k.Now())
	if secondWindow < firstWindow*3/2 {
		t.Fatalf("backoff did not grow: first=%v second=%v", firstWindow, secondWindow)
	}
	if got := c.Counters(); got.Opens != 2 || got.Closes != 0 {
		t.Fatalf("counters after reopen: %+v", got)
	}

	// The stale stuck probe finally completes (RTO-style): it must not
	// count as a probe outcome for the next half-open window.
	k.RunFor(OpenWindow * 4)
	if !c.Allow(0) { // half-open again
		t.Fatal("second half-open denied its probe")
	}
	c.OnComplete(0, true) // the stale completion pops first
	if c.State(0) != HalfOpen {
		t.Fatalf("stale completion moved state to %v", c.State(0))
	}
}

func TestErrorEdgesOpen(t *testing.T) {
	_, c := newTest(4)
	c.OnError(0)
	if c.State(0) != Open {
		t.Fatal("an error edge did not open the breaker")
	}
	// Further edges while open change nothing.
	c.OnError(0)
	if got := c.Counters().Opens; got != 1 {
		t.Fatalf("edge on an open breaker reopened it: %d opens", got)
	}
	// A sent request failing (conn death) also counts as an edge.
	if c.State(1) != Closed {
		t.Fatal("shard-b not closed")
	}
	c.OnSend(1)
	c.OnComplete(1, false)
	if c.State(1) != Open {
		t.Fatal("a failed completion did not open the breaker")
	}
}

func TestJitterIsSeedDeterministic(t *testing.T) {
	trip := func(seed uint64) []sim.Time {
		k, c := newTest(seed)
		var reopens []sim.Time
		for cycle := 0; cycle < 4; cycle++ {
			c.OnSend(0)
			k.RunFor(Timeout * 2)
			c.Allow(0)
			if c.State(0) != Open {
				t.Fatalf("seed %d cycle %d: not open", seed, cycle)
			}
			reopens = append(reopens, c.trackers[0].reopenAt)
			// Let the window expire, admit and wedge the probe, repeat.
			k.RunUntil(c.trackers[0].reopenAt.Add(sim.Microsecond))
			c.Allow(0)
		}
		return reopens
	}
	a, b := trip(42), trip(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, reopen %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	d := trip(43)
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered windows")
	}
}

func TestEventTraceRendering(t *testing.T) {
	k, c := newTest(5)
	c.OnSend(1)
	k.RunFor(Timeout * 2)
	c.Allow(1)
	evs := c.Events()
	if len(evs) != 1 {
		t.Fatalf("want 1 event, got %d", len(evs))
	}
	want := fmt.Sprintf("[%v] shard 1 shard-b closed->open (timeout)", evs[0].T)
	if evs[0].String() != want {
		t.Fatalf("event rendering %q, want %q", evs[0].String(), want)
	}
}

func TestNoteCounters(t *testing.T) {
	_, c := newTest(6)
	c.NoteShed()
	c.NoteShed()
	c.NoteReroute()
	got := c.Counters()
	if got.Shed != 2 || got.Rerouted != 1 {
		t.Fatalf("note counters: %+v", got)
	}
	if got.Total() != 0 {
		t.Fatalf("Total counts per-request notes: %+v", got)
	}
}

// tripAndProbe drives shard 0 through one open cycle to the point where
// both half-open probes have been sent and are about to complete.
func tripAndProbe(k *sim.Kernel, c *Controller) {
	c.OnSend(0)
	k.RunFor(Timeout + sim.Microsecond)
	c.Allow(0) // counts the timeout edge, opens
	k.RunFor(2 * OpenWindow)
	c.Allow(0)
	c.Allow(0)
	c.OnSend(0)
	c.OnSend(0)
	k.RunFor(5 * sim.Microsecond)
	// The originally stuck request completes first (FIFO) and is stale.
	c.OnComplete(0, true)
}

func TestReadmissionGateHoldsHalfOpen(t *testing.T) {
	k, c := newTest(11)
	ready := false
	c.SetGate(func(shard int) bool { return ready })
	var seen []string
	c.SetObserver(func(e stats.HealthEvent) { seen = append(seen, e.From+">"+e.To+":"+e.Reason) })

	tripAndProbe(k, c)
	c.OnComplete(0, true)
	c.OnComplete(0, true)
	if c.State(0) != HalfOpen {
		t.Fatalf("gated shard closed anyway: state=%v", c.State(0))
	}
	last := seen[len(seen)-1]
	if last != "half-open>half-open:"+ReasonAwaitingGate {
		t.Fatalf("gate hold not recorded; observer saw %v", seen)
	}
	// More completions while gated must not re-fire the awaiting event.
	n := len(c.Events())
	c.OnSend(0)
	k.RunFor(sim.Microsecond)
	c.OnComplete(0, true)
	if len(c.Events()) != n {
		t.Fatalf("gated shard re-fired events: %v", c.Events()[n:])
	}

	// Readmit before the gate's catch-up finished is refused while probes
	// are unmet on another shard, and succeeds here.
	ready = true
	c.Readmit(0)
	if c.State(0) != Closed {
		t.Fatalf("Readmit left state %v", c.State(0))
	}
	ev := c.Events()[len(c.Events())-1]
	if ev.Reason != ReasonReadmitted || ev.From != "half-open" || ev.To != "closed" {
		t.Fatalf("readmit event %+v", ev)
	}
	// Readmit on a closed shard is a no-op.
	n = len(c.Events())
	c.Readmit(0)
	if len(c.Events()) != n {
		t.Fatal("Readmit on a closed shard recorded an event")
	}
}

func TestUngatedControllerClosesAsBefore(t *testing.T) {
	k, c := newTest(12)
	tripAndProbe(k, c)
	c.OnComplete(0, true)
	c.OnComplete(0, true)
	if c.State(0) != Closed {
		t.Fatalf("ungated probes did not close: %v", c.State(0))
	}
	if e := c.Events()[len(c.Events())-1]; e.Reason != "probes ok" {
		t.Fatalf("normal close reason changed: %+v", e)
	}
}

func TestDwellTimesIntegrateTimeline(t *testing.T) {
	k, c := newTest(13)

	// Shard 1 never transitions: all dwell is closed.
	k.RunFor(sim.Millisecond)
	cl, op, ho := c.DwellTimes(1, k.Now())
	if cl != sim.Millisecond || op != 0 || ho != 0 {
		t.Fatalf("untouched shard dwell closed=%v open=%v half-open=%v", cl, op, ho)
	}

	// Shard 0: closed until the timeout edge, open until the window
	// expires, then half-open.
	c.OnSend(0)
	k.RunFor(Timeout + sim.Microsecond)
	c.Allow(0) // opens now
	openedAt := k.Now()
	k.RunFor(2 * OpenWindow)
	c.Allow(0) // first probe flips to half-open
	halfAt := k.Now()
	k.RunFor(sim.Millisecond)
	now := k.Now()

	cl, op, ho = c.DwellTimes(0, now)
	if cl != openedAt.Sub(sim.Time(0)) {
		t.Fatalf("closed dwell %v, want %v", cl, openedAt.Sub(sim.Time(0)))
	}
	if op != halfAt.Sub(openedAt) {
		t.Fatalf("open dwell %v, want %v", op, halfAt.Sub(openedAt))
	}
	if ho != now.Sub(halfAt) {
		t.Fatalf("half-open dwell %v, want %v", ho, now.Sub(halfAt))
	}
	if cl+op+ho != now.Sub(sim.Time(0)) {
		t.Fatalf("dwell times do not partition the run: %v+%v+%v != %v", cl, op, ho, now)
	}
}

// TestOutstandingReusesItsArray keeps a window of requests in flight and
// completes them FIFO: once the window is warm, a send and a completion
// allocate nothing, because popping the oldest send time advances an index
// rather than re-slicing the front of the array OnSend appends to.
func TestOutstandingReusesItsArray(t *testing.T) {
	_, c := newTest(1)
	for i := 0; i < 8; i++ {
		c.OnSend(0)
	}
	c.OnSend(0) // grows the array once, past the window
	c.OnComplete(0, true)
	// Counted over the whole run: AllocsPerRun's per-run average rounds
	// an occasional regrowth down to zero.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		c.OnSend(0)
		c.OnComplete(0, true)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("1000 sends and completions allocate %d objects, want 0", n)
	}
	if st := c.State(0); st != Closed {
		t.Fatalf("healthy FIFO traffic left the shard %v", st)
	}
}
