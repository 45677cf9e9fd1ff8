package sim

import "fmt"

// Kernel is the discrete-event simulation engine. Create one with NewKernel,
// start processes with Go, then call Run (or RunUntil / RunFor).
//
// There is one event loop, and it runs on the Run caller. Every process
// body runs in its own coroutine: a wake resumes that coroutine, and the
// process hands control straight back to the loop when it parks. Exactly
// one of them executes at any instant, so all simulation state may be
// accessed without locks.
type Kernel struct {
	now   Time
	q     eventQueue
	seq   uint64
	live  map[*Proc]struct{}
	pool  []*shell
	inRun bool
	stats KernelStats
}

// KernelStats counts scheduler work since the kernel was created. Every
// counter is deterministic for a fixed seed and topology: the values
// depend only on the simulated event stream, never on wall-clock time or
// the Go scheduler, so artifact gates may compare them exactly.
type KernelStats struct {
	Pushes      uint64 // events scheduled (callbacks, wakes, timer arms)
	WheelPushes uint64 // pushes that landed in a timer-wheel level
	Pops        uint64 // events popped and dispatched (incl. stale wakes)
	StaleWakes  uint64 // wake events dropped by the generation check
	ProcWakes   uint64 // wakes delivered to a process
	SelfWakes   uint64 // always 0; kept only because benchmark/ reads it
	Switches    uint64 // coroutine resumes: one per delivered wake
	Spawns      uint64 // processes created with Go
	Shells      uint64 // coroutines actually created (pool misses)
}

// WakeReason tells a parked process why it resumed.
type WakeReason int

const (
	// WakeDone is the normal wake reason (sleep elapsed, signal fired,
	// resource granted).
	WakeDone WakeReason = iota
	// WakeTimeout indicates a timed wait expired before the awaited
	// condition occurred.
	WakeTimeout
)

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel {
	k := &Kernel{live: make(map[*Proc]struct{})}
	k.q.init()
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns the scheduler work counters accumulated so far.
func (k *Kernel) Stats() KernelStats { return k.stats }

// PendingEvents returns the number of scheduled events that have not yet
// fired. Cancelled timers do not count: Timer.Stop and Timer.Reset unlink
// their event eagerly instead of leaving a ghost in the queue.
func (k *Kernel) PendingEvents() int { return k.q.size }

// At schedules fn to run in kernel context at time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	idx := k.q.alloc()
	e := &k.q.arena[idx]
	e.at, e.seq, e.fn = t, k.seq, fn
	k.seq++
	k.insert(idx)
}

// After schedules fn to run in kernel context after delay d.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

func (k *Kernel) scheduleWake(t Time, p *Proc, gen uint64, reason WakeReason) {
	if t < k.now {
		t = k.now
	}
	idx := k.q.alloc()
	e := &k.q.arena[idx]
	e.at, e.seq = t, k.seq
	e.proc, e.gen, e.reason = p, gen, reason
	k.seq++
	k.insert(idx)
}

func (k *Kernel) insert(idx int32) {
	k.stats.Pushes++
	if k.q.insert(idx, k.now) {
		k.stats.WheelPushes++
	}
}

// Run executes events until none remain, then returns the final simulated
// time. Processes still blocked at that point stay parked; call Shutdown to
// release their coroutines.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunFor runs the simulation for d more simulated time.
func (k *Kernel) RunFor(d Duration) Time { return k.RunUntil(k.now.Add(d)) }

// RunUntil executes events with timestamps <= limit and returns the
// simulated time at which it stopped (limit, or earlier if the event queue
// drained). It is the one event loop: callbacks run on the caller, and a
// wake resumes its process's coroutine until that process parks again.
func (k *Kernel) RunUntil(limit Time) Time {
	if k.inRun {
		panic("sim: nested Run")
	}
	k.inRun = true
	defer func() { k.inRun = false }()
	for {
		idx := k.q.peek(k.now)
		if idx == nilIdx || k.q.arena[idx].at > limit {
			break
		}
		e := &k.q.arena[idx]
		at, fn, p, tm, gen, reason := e.at, e.fn, e.proc, e.timer, e.gen, e.reason
		k.q.remove(idx)
		k.q.release(idx)
		k.now = at
		k.stats.Pops++
		switch {
		case p != nil:
			if !p.waiting || p.waitGen != gen {
				k.stats.StaleWakes++
				continue // stale wake (e.g. signal raced a timeout)
			}
			p.waiting = false
			p.reason = reason
			k.stats.ProcWakes++
			k.stats.Switches++
			p.shell.next()
		case tm != nil:
			tm.ev = nilIdx
			tm.fn()
		default:
			fn()
		}
	}
	if k.now < limit && limit != MaxTime {
		k.now = limit
	}
	return k.now
}

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool { return k.q.size == 0 }

// LiveProcs returns the number of processes that have been created and not
// yet finished.
func (k *Kernel) LiveProcs() int { return len(k.live) }

// Shutdown stops every live process's coroutine so the body unwinds,
// releases the pooled idle coroutines, and discards all pending events.
// The kernel must not be running. It is safe to call Shutdown more than
// once; after Shutdown the kernel must not be reused.
func (k *Kernel) Shutdown() {
	k.q.init()
	for p := range k.live {
		p.shell.stop()
		// A process that never started has no body to unwind.
		p.done = true
		delete(k.live, p)
	}
	if len(k.live) != 0 {
		panic(fmt.Sprintf("sim: %d processes survived shutdown", len(k.live)))
	}
	for _, sh := range k.pool {
		sh.stop()
	}
	k.pool = nil
}

// A Timer invokes a callback at a future simulated time unless stopped or
// reset first. Stop and Reset unlink the scheduled event immediately, so a
// churning timer (RTO backoff, watchdogs) holds at most one queue entry
// and cancelled firings cost nothing at dispatch time.
type Timer struct {
	k       *Kernel
	fn      func()
	ev      int32 // arena index of the armed event, nilIdx when idle
	expires Time
}

// NewTimer returns a stopped timer that will call fn in kernel context when
// it fires.
func (k *Kernel) NewTimer(fn func()) *Timer { return &Timer{k: k, fn: fn, ev: nilIdx} }

// Reset (re)arms the timer to fire after d. Any previously scheduled firing
// is cancelled.
func (t *Timer) Reset(d Duration) {
	k := t.k
	if t.ev != nilIdx {
		k.q.remove(t.ev)
		k.q.release(t.ev)
	}
	t.expires = k.now.Add(d)
	at := t.expires
	if at < k.now {
		at = k.now
	}
	idx := k.q.alloc()
	e := &k.q.arena[idx]
	e.at, e.seq, e.timer = at, k.seq, t
	k.seq++
	k.insert(idx)
	t.ev = idx
}

// Stop cancels any pending firing. It reports whether a firing was pending.
func (t *Timer) Stop() bool {
	if t.ev == nilIdx {
		return false
	}
	t.k.q.remove(t.ev)
	t.k.q.release(t.ev)
	t.ev = nilIdx
	return true
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev != nilIdx }

// Expires returns the time the timer will fire if it is pending.
func (t *Timer) Expires() Time { return t.expires }
