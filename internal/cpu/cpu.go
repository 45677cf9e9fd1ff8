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

// An IRQ is a hardware interrupt line with a fixed handler. Each Raise is
// a new kernel-context process that pays entry cost, runs the handler and
// pays exit cost; Raise returns immediately (the interrupt is
// asynchronous). The process name and body are built once, for a device
// that raises the same interrupt for every batch of packets.
type IRQ struct {
	c       *CPU
	name    string
	handler func(p *sim.Proc)
	serve   func(p *sim.Proc) // q.run, bound once
}

// NewIRQ returns the interrupt line name of c, served by handler.
func (c *CPU) NewIRQ(name string, handler func(p *sim.Proc)) *IRQ {
	q := &IRQ{c: c, name: c.Name + "/irq/" + name, handler: handler}
	q.serve = q.run
	return q
}

// Raise fires the interrupt.
func (q *IRQ) Raise() { q.c.K.Go(q.name, q.serve) }

func (q *IRQ) run(p *sim.Proc) {
	q.c.Exec(p, q.c.Costs.IRQEntryCycles)
	q.handler(p)
	q.c.Exec(p, q.c.Costs.IRQExitCycles)
}

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
// cost and schedules a tasklet that does the real work.
type HRTimer struct {
	interval sim.Duration
	irq      *IRQ
	timer    *sim.Timer
	running  bool
	Fires    int64
}

// NewHRTimer creates a stopped high-resolution timer whose tasklet body is
// fn.
func (c *CPU) NewHRTimer(interval sim.Duration, fn func(p *sim.Proc)) *HRTimer {
	h := &HRTimer{interval: interval}
	// The timer interrupt itself: entry + short routine + exit, then the
	// body runs in softirq context.
	h.irq = c.NewIRQ("hrtimer", func(p *sim.Proc) {
		c.Exec(p, c.Costs.HRTimerCycles)
		c.ScheduleTasklet(fn)
	})
	h.timer = c.K.NewTimer(h.fire)
	return h
}

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
