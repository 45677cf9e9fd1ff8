// Package cpu models a multi-core processor running an operating system
// kernel, at the granularity the MCN paper's results depend on: cycle costs
// charged on a finite set of cores, hardware interrupts, softirq/tasklet
// deferred work, and high-resolution timers.
//
// A "task" here is any stretch of driver or protocol work; it occupies one
// core for a duration derived from a cycle count at the core's clock, or
// for the duration of a modeled memory operation (for copies bounded by the
// memory system rather than the pipeline).
package cpu

import (
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// OSCosts collects the fixed cycle costs of kernel mechanisms. Values are
// order-of-magnitude figures from Linux micro-benchmarks.
type OSCosts struct {
	IRQEntryCycles   int64 // interrupt entry: save state, dispatch
	IRQExitCycles    int64 // interrupt return
	TaskletRunCycles int64 // softirq dispatch overhead per tasklet
	HRTimerCycles    int64 // hrtimer interrupt routine body
}

// DefaultOSCosts returns the costs used by the Table II configuration.
func DefaultOSCosts() OSCosts {
	return OSCosts{
		IRQEntryCycles:   1200,
		IRQExitCycles:    800,
		TaskletRunCycles: 300,
		HRTimerCycles:    400,
	}
}

// CPU is a multi-core processor with an OS kernel.
type CPU struct {
	K     *sim.Kernel
	Name  string
	Freq  float64 // Hz
	Cores *sim.Resource
	Costs OSCosts
	// Busy accumulates core-seconds of execution for energy accounting.
	Busy *stats.BusyMeter

	softq *sim.Queue[func(p *sim.Proc)]
	seqs  []*Seq // idle charge sequences
}

// New creates a CPU with the given core count and clock and starts its
// softirq service process.
func New(k *sim.Kernel, name string, cores int, freq float64, costs OSCosts) *CPU {
	c := &CPU{
		K:     k,
		Name:  name,
		Freq:  freq,
		Cores: k.NewResource(cores),
		Costs: costs,
		Busy:  &stats.BusyMeter{},
		softq: sim.NewQueue[func(p *sim.Proc)](k, 0),
	}
	k.Go(name+"/softirqd", c.softirqd)
	return c
}

// NumCores returns the number of cores.
func (c *CPU) NumCores() int { return c.Cores.Capacity() }

// CyclesDur converts a cycle count to a duration at this CPU's clock.
func (c *CPU) CyclesDur(n int64) sim.Duration { return sim.Cycles(n, c.Freq) }

// Exec occupies one core for n cycles.
func (c *CPU) Exec(p *sim.Proc, n int64) { c.ExecFor(p, c.CyclesDur(n)) }

// ExecFor occupies one core for the given duration.
func (c *CPU) ExecFor(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	c.Cores.Acquire(p)
	p.Sleep(d)
	c.Cores.Release()
	c.Busy.AddBusy(d)
}

// ExecThen is ExecFor as a callback chain: it occupies one core for d and
// then runs then (if non-nil), taking the events ExecFor would at the same
// (at, seq): the core grant where the process's acquire would land and the
// release where its wake would. then runs at once when d <= 0.
func (c *CPU) ExecThen(d sim.Duration, then func()) { c.Seq().ExecFor(d).RunThen(then) }

// ExecWhile occupies one core for as long as fn runs. It is used for
// operations whose duration is set by another subsystem (e.g. a driver
// memcpy bounded by the memory channel): the core spins/stalls while the
// transfer proceeds.
func (c *CPU) ExecWhile(p *sim.Proc, fn func()) {
	c.Cores.Acquire(p)
	start := p.Now()
	fn()
	c.Cores.Release()
	c.Busy.AddBusy(p.Now().Sub(start))
}

// An IRQ is a hardware interrupt line with a fixed handler. Each Raise
// pays the entry cost, runs the handler and pays the exit cost; Raise
// returns immediately (the interrupt is asynchronous). The entry and exit
// charges are ExecThen callbacks. A handler that reaches the network
// stack runs in a process started in place when the entry charge retires
// (NewIRQ); one that never does is itself a callback chain and runs with
// no process at all (NewIRQChain). Everything a Raise runs is bound once
// per line, so raising allocates nothing beyond a handler's process.
type IRQ struct {
	c       *CPU
	name    string
	handler func(done func())
	// bound once: onEnter, onStart, onExit
	enter, start, exit func()
}

// NewIRQ returns the interrupt line name of c, served by handler in a
// kernel-context process: a chain handler that starts the process in
// place and pays the exit cost when the process's body returns.
func (c *CPU) NewIRQ(name string, handler func(p *sim.Proc)) *IRQ {
	var q *IRQ
	serve := func(p *sim.Proc) {
		handler(p)
		q.exit()
	}
	q = c.NewIRQChain(name, func(func()) { c.K.GoInPlace(q.name, serve) })
	return q
}

// NewIRQChain returns the interrupt line name of c, served by handler as
// a callback chain that calls done when it is finished.
func (c *CPU) NewIRQChain(name string, handler func(done func())) *IRQ {
	q := &IRQ{c: c, name: c.Name + "/irq/" + name, handler: handler}
	q.enter, q.start, q.exit = q.onEnter, q.onStart, q.onExit
	return q
}

// Raise fires the interrupt. The entry charge begins in an event at the
// current instant, the slot the start wake of a handler process took.
func (q *IRQ) Raise() { q.c.K.At(q.c.K.Now(), q.enter) }

func (q *IRQ) onEnter() { q.c.ExecThen(q.c.CyclesDur(q.c.Costs.IRQEntryCycles), q.start) }

func (q *IRQ) onStart() { q.handler(q.exit) }

func (q *IRQ) onExit() { q.c.ExecThen(q.c.CyclesDur(q.c.Costs.IRQExitCycles), nil) }

// ScheduleTasklet defers fn to softirq context, as the MCN polling agent
// and NIC NAPI paths do. The tasklet runs on the softirqd process in FIFO
// order, paying the dispatch cost.
func (c *CPU) ScheduleTasklet(fn func(p *sim.Proc)) {
	c.softq.TryPut(fn)
}

func (c *CPU) softirqd(p *sim.Proc) {
	for {
		fn, ok := c.softq.Get(p)
		if !ok {
			return
		}
		c.Exec(p, c.Costs.TaskletRunCycles)
		fn(p)
	}
}

// An HRTimer re-arms itself every Interval and, per the paper's efficient
// polling design (Sec. IV-A), its interrupt routine only pays a small fixed
// cost and schedules a tasklet that does the real work. The routine is a
// callback chain: the timer interrupt runs without a process.
type HRTimer struct {
	c        *CPU
	interval sim.Duration
	fn       func(p *sim.Proc)
	irq      *IRQ
	timer    *sim.Timer
	running  bool
	Fires    int64
	schedule func(*Seq) // h.scheduleTasklet, bound once
}

// NewHRTimer creates a stopped high-resolution timer whose tasklet body is
// fn.
func (c *CPU) NewHRTimer(interval sim.Duration, fn func(p *sim.Proc)) *HRTimer {
	h := &HRTimer{c: c, interval: interval, fn: fn}
	h.schedule = h.scheduleTasklet
	h.irq = c.NewIRQChain("hrtimer", h.routine)
	h.timer = c.K.NewTimer(h.fire)
	return h
}

// routine is the timer interrupt's handler: a short fixed cost, then the
// body is deferred to softirq context.
func (h *HRTimer) routine(done func()) {
	h.c.Seq().Exec(h.c.Costs.HRTimerCycles).Hook(h.schedule).RunThen(done)
}

func (h *HRTimer) scheduleTasklet(*Seq) { h.c.ScheduleTasklet(h.fn) }

// Start arms the timer.
func (h *HRTimer) Start() {
	if h.running {
		return
	}
	h.running = true
	h.timer.Reset(h.interval)
}

// Stop disarms the timer.
func (h *HRTimer) Stop() {
	h.running = false
	h.timer.Stop()
}

func (h *HRTimer) fire() {
	if !h.running {
		return
	}
	h.Fires++
	h.irq.Raise()
	if h.running {
		h.timer.Reset(h.interval)
	}
}

// A Seq is a run of charges that one process (or one interrupt handler)
// makes back to back — ExecFor durations, callback-form operations such
// as a node's bulk copy with a core held around them as under ExecWhile,
// and lock acquisitions and other waits that hold no core — run as one
// callback chain,
// so the process parks at most once however many charges there are, and
// not at all when every charge is free. Each step takes the events its
// process form would at the same (at, seq). A hook step runs code at the
// instant the process form would have run it between two charges; it may
// append further steps, and the chain ends when no step is left. N and
// Buf are the chain's scratch values: the caller sets them, hooks read
// and update them, and Run returns N. Seqs are pooled per CPU: building
// and running one allocates nothing once the pool is warm, as long as
// every function handed to it is bound once by its owner.
type Seq struct {
	c        *CPU
	steps    [seqMax]seqStep
	i, count int // next step to run, steps held
	N        int
	Buf      []byte
	resume   func() // the process's resume, or the handler's done
	proc     bool   // Run rather than RunThen
	// The step in flight: a charge's duration, or a held-core
	// operation, its argument and its core grant time.
	d     sim.Duration
	op    func(n int, done func())
	n     int
	start sim.Time
	// bound once: step, onCharge, onCharged, onHold, onHeld
	next, charge, charged, hold, held func()
}

// seqMax bounds the steps a Seq holds that have not run yet; a hook that
// appends steps after the others have run starts from an empty list.
const seqMax = 8

type seqStep struct {
	d    sim.Duration             // hold a core for d (op, lock and hook nil)
	op   func(n int, done func()) // or for op(n, done), a callback chain
	n    int
	free bool          // run op with no core held
	lock *sim.Resource // or take a unit of lock
	hook func(s *Seq)
}

// Seq returns an empty charge sequence.
func (c *CPU) Seq() *Seq {
	if i := len(c.seqs) - 1; i >= 0 {
		s := c.seqs[i]
		c.seqs = c.seqs[:i]
		return s
	}
	s := &Seq{c: c}
	s.next, s.charge, s.charged, s.hold, s.held = s.step, s.onCharge, s.onCharged, s.onHold, s.onHeld
	return s
}

// Exec appends an n-cycle charge.
func (s *Seq) Exec(n int64) *Seq { return s.ExecFor(s.c.CyclesDur(n)) }

// ExecFor appends a charge of duration d.
func (s *Seq) ExecFor(d sim.Duration) *Seq {
	return s.add(seqStep{d: d})
}

// While appends op(n, done) run with one core held around it, as
// ExecWhile holds one around its function.
func (s *Seq) While(op func(n int, done func()), n int) *Seq {
	return s.add(seqStep{op: op, n: n})
}

// Lock appends taking one unit of r, queued in r's FIFO where Acquire
// would queue the process but holding no core. The unit stays taken when
// the sequence ends: its owner releases it.
func (s *Seq) Lock(r *sim.Resource) *Seq {
	return s.add(seqStep{lock: r})
}

// Wait appends op(n, done) run with no core held: a wait, as Lock's is,
// for a condition that op's owner signals by calling done at the instant
// a process waiting on it would have been woken.
func (s *Seq) Wait(op func(n int, done func()), n int) *Seq {
	return s.add(seqStep{op: op, n: n, free: true})
}

// Hook appends fn, run when the steps before it are done.
func (s *Seq) Hook(fn func(s *Seq)) *Seq {
	return s.add(seqStep{hook: fn})
}

// add appends st. Once every step so far has run, the list restarts, so a
// chain that loops through its hooks holds a bounded number of steps.
func (s *Seq) add(st seqStep) *Seq {
	if s.i == s.count {
		s.i, s.count = 0, 0
	}
	if s.count == seqMax {
		panic("cpu: Seq holds too many steps")
	}
	s.steps[s.count] = st
	s.count++
	return s
}

// Run runs the sequence for p, parking p at most once, and returns N.
func (s *Seq) Run(p *sim.Proc) int {
	s.resume, s.proc = p.ResumeFunc(), true
	p.Await(s.next)
	n := s.N
	s.release()
	return n
}

// RunThen runs the sequence as a callback chain and calls done (if
// non-nil) when it ends.
func (s *Seq) RunThen(done func()) {
	s.resume, s.proc = done, false
	s.step()
}

// release returns the sequence to its CPU's pool.
func (s *Seq) release() {
	s.i, s.count, s.N, s.Buf = 0, 0, 0, nil
	s.c.seqs = append(s.c.seqs, s)
}

// step runs steps until one has to wait, or ends the chain. A step's
// callback may run before the call that armed it returns, so arming a
// wait is always the last thing step does. A charge and a held core are
// ExecThen and ExecWhile run by the sequence itself: Cores.AcquireThen,
// then After(d) or the operation, then the release.
func (s *Seq) step() {
	for s.i < s.count {
		st := &s.steps[s.i]
		s.i++
		switch {
		case st.hook != nil:
			st.hook(s)
		case st.free:
			st.op(st.n, s.next)
			return
		case st.op != nil:
			s.op, s.n = st.op, st.n
			s.c.Cores.AcquireThen(s.hold)
			return
		case st.lock != nil:
			st.lock.AcquireThen(s.next)
			return
		case st.d > 0:
			s.d = st.d
			s.c.Cores.AcquireThen(s.charge)
			return
		}
	}
	if s.proc {
		s.resume()
		return
	}
	done := s.resume
	s.release()
	if done != nil {
		done()
	}
}

func (s *Seq) onCharge() { s.c.K.After(s.d, s.charged) }

func (s *Seq) onCharged() {
	s.c.Cores.Release()
	s.c.Busy.AddBusy(s.d)
	s.step()
}

func (s *Seq) onHold() {
	s.start = s.c.K.Now()
	s.op(s.n, s.held)
}

func (s *Seq) onHeld() {
	s.c.Cores.Release()
	s.c.Busy.AddBusy(s.c.K.Now().Sub(s.start))
	s.step()
}
