package cpu

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

// The process forms below are the references the callback chains are
// checked against: what an interrupt line and the hrtimer routine did
// before each became a chain. ExecFor is the process form of ExecThen.

// refExecFor is ExecFor, named as the process form it stands for.
func refExecFor(c *CPU, p *sim.Proc, d sim.Duration) { c.ExecFor(p, d) }

// refRaise is an interrupt's process form: every raise spawns a process
// that pays the entry cost, runs the handler and pays the exit cost.
func refRaise(c *CPU, handler func(p *sim.Proc)) {
	c.K.Go(c.Name+"/irq/ref", func(p *sim.Proc) {
		refExecFor(c, p, c.CyclesDur(c.Costs.IRQEntryCycles))
		handler(p)
		refExecFor(c, p, c.CyclesDur(c.Costs.IRQExitCycles))
	})
}

// rival contends for the CPU's cores from its own process.
func rival(c *CPU) {
	c.K.Go("rival", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			refExecFor(c, p, sim.Duration(300+i%5*170)*sim.Nanosecond)
			p.Sleep(sim.Duration(i%3) * 90 * sim.Nanosecond)
		}
	})
}

// diffChain runs a scenario in its process form and as a chain. The
// chain must produce the same observations and push and pop exactly the
// same events, with strictly fewer coroutine switches.
func diffChain(t *testing.T, run func(chain bool) ([]any, sim.KernelStats)) {
	t.Helper()
	want, ws := run(false)
	got, gs := run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chain diverges from the process form:\n got %v\nwant %v", got, want)
	}
	if gs.Pushes != ws.Pushes || gs.Pops != ws.Pops {
		t.Fatalf("chain pushed/popped %d/%d events, process form %d/%d", gs.Pushes, gs.Pops, ws.Pushes, ws.Pops)
	}
	if gs.Switches >= ws.Switches {
		t.Fatalf("chain took %d switches, process form %d: want fewer", gs.Switches, ws.Switches)
	}
}

// TestExecThenMatchesExecFor: ExecThen takes ExecFor's events on a
// two-core CPU that four workers and a rival oversubscribe, zero-length
// charges included, and a process waiting on it parks once even when it
// queues for a core.
func TestExecThenMatchesExecFor(t *testing.T) {
	diffChain(t, func(chain bool) ([]any, sim.KernelStats) {
		k := sim.NewKernel()
		defer k.Shutdown()
		c := newCPU(k, 2)
		rival(c)
		var ends []any
		for w := 0; w < 4; w++ {
			k.Go("worker", func(p *sim.Proc) {
				resume := p.ResumeFunc()
				for i, n := range []int64{700, 0, 1200, 64, 2500, 1} {
					d := c.CyclesDur(n)
					if chain {
						p.Await(func() { c.ExecThen(d, resume) })
					} else {
						c.ExecFor(p, d)
					}
					ends = append(ends, p.Now(), c.Cores.InUse(), c.Busy.Busy)
					p.Sleep(sim.Duration(i*w) * 50 * sim.Nanosecond)
				}
			})
		}
		k.Run()
		return []any{ends, k.Now(), c.Busy.Busy}, k.Stats()
	})
}

// TestSeqMatchesProcessForm: a charge sequence — charges, a lock taken
// with no core held, an operation under a held core, the same operation
// waited for with no core held, and hooks that log
// and append steps at their instants — matches the same charges and the
// same Acquire made one by one from a process, under core and lock
// contention.
func TestSeqMatchesProcessForm(t *testing.T) {
	diffChain(t, func(chain bool) ([]any, sim.KernelStats) {
		k := sim.NewKernel()
		defer k.Shutdown()
		c := newCPU(k, 1)
		rival(c)
		lk := k.NewResource(1)
		var log []any
		note := func(what string) { log = append(log, what, k.Now(), c.Cores.InUse(), lk.InUse()) }
		// op is a callback operation of n ns; its process form sleeps
		// under ExecWhile.
		op := func(n int, done func()) { k.After(sim.Duration(n)*sim.Nanosecond, done) }
		hook := func(*Seq) { note("hook") }
		tail := func(q *Seq) {
			note("tail")
			q.Exec(int64(q.N))
			q.N = 7
		}
		for w := 0; w < 3; w++ {
			k.Go("caller", func(p *sim.Proc) {
				for i := 0; i < 4; i++ {
					n := 100 + 50*w + i
					if chain {
						q := c.Seq().Exec(int64(n)).Hook(hook).Lock(lk).While(op, 2*n).Wait(op, n).Exec(0).Hook(tail)
						q.N = 40
						log = append(log, q.Run(p))
					} else {
						refExecFor(c, p, c.CyclesDur(int64(n)))
						note("hook")
						lk.Acquire(p)
						c.ExecWhile(p, func() { p.Sleep(sim.Duration(2*n) * sim.Nanosecond) })
						p.Sleep(sim.Duration(n) * sim.Nanosecond)
						note("tail")
						refExecFor(c, p, c.CyclesDur(40))
						log = append(log, 7)
					}
					note("done")
					p.Sleep(sim.Duration(30*i) * sim.Nanosecond)
					lk.Release()
				}
			})
		}
		k.Run()
		return []any{log, k.Now(), c.Busy.Busy}, k.Stats()
	})
}

// TestSeqSynchronousDoesNotPark: a sequence whose charges are all free
// finishes inside Run without a switch.
func TestSeqSynchronousDoesNotPark(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	c := newCPU(k, 1)
	var switches uint64
	k.Go("caller", func(p *sim.Proc) {
		before := k.Stats().Switches
		now := func(n int, done func()) { done() }
		c.Seq().Exec(0).While(now, 2).Run(p)
		switches = k.Stats().Switches - before
	})
	k.Run()
	if switches != 0 || k.Now() != 0 {
		t.Fatalf("free sequence took %d switches and ended at %v, want none at 0", switches, k.Now())
	}
}

// TestIRQMatchesProcessForm raises a process-handler line and a chain
// line from callbacks at overlapping instants, with a rival on the cores,
// and checks both against the process form of an interrupt: entry and exit
// charged from a spawned process around the handler. The chain line
// spawns nothing.
func TestIRQMatchesProcessForm(t *testing.T) {
	var spawns [2]uint64
	diffChain(t, func(chain bool) ([]any, sim.KernelStats) {
		k := sim.NewKernel()
		defer k.Shutdown()
		c := newCPU(k, 2)
		rival(c)
		var log []any
		note := func(what string) { log = append(log, what, k.Now(), c.Cores.InUse()) }
		procHandler := func(p *sim.Proc) {
			note("proc-handler")
			c.Exec(p, 400)
			note("proc-handled")
		}
		// chainBody is the chain handler; its process form is the same
		// charge from a process.
		chainBody := func(q *Seq) { note("chain-handled") }
		procLine := c.NewIRQ("proc", procHandler)
		chainLine := c.NewIRQChain("chain", func(done func()) {
			note("chain-handler")
			c.Seq().Exec(250).Hook(chainBody).RunThen(done)
		})
		for i, at := range []sim.Time{0, 100, 100, 900, 1500, 1500, 1600} {
			i := i
			k.At(at, func() {
				switch {
				case chain && i%2 == 0:
					procLine.Raise()
				case chain:
					chainLine.Raise()
				case i%2 == 0:
					refRaise(c, procHandler)
				default:
					refRaise(c, func(p *sim.Proc) {
						note("chain-handler")
						refExecFor(c, p, c.CyclesDur(250))
						note("chain-handled")
					})
				}
			})
		}
		k.Run()
		st := k.Stats()
		spawns[map[bool]int{false: 0, true: 1}[chain]] = st.Spawns
		return []any{log, k.Now(), c.Busy.Busy}, st
	})
	// Three of the seven raises are chain-line raises.
	if spawns[0]-spawns[1] != 3 {
		t.Fatalf("spawns: process form %d, chains %d; want the 3 chain raises to spawn nothing", spawns[0], spawns[1])
	}
}

// TestHRTimerMatchesProcessForm: the timer interrupt's routine, now a
// chain with no process, fires its tasklets at the instants the process
// form did, on a one-core CPU a rival keeps busy.
func TestHRTimerMatchesProcessForm(t *testing.T) {
	diffChain(t, func(chain bool) ([]any, sim.KernelStats) {
		k := sim.NewKernel()
		defer k.Shutdown()
		c := newCPU(k, 1)
		rival(c)
		var fires []any
		body := func(p *sim.Proc) {
			fires = append(fires, p.Now())
			c.Exec(p, 300)
		}
		if chain {
			h := c.NewHRTimer(2*sim.Microsecond, body)
			h.Start()
			k.RunFor(20 * sim.Microsecond)
			h.Stop()
		} else {
			// The timer's process form: each firing raises an interrupt
			// whose handler charges the routine and schedules the body.
			var tm *sim.Timer
			tm = k.NewTimer(func() {
				refRaise(c, func(p *sim.Proc) {
					refExecFor(c, p, c.CyclesDur(c.Costs.HRTimerCycles))
					c.ScheduleTasklet(body)
				})
				tm.Reset(2 * sim.Microsecond)
			})
			tm.Reset(2 * sim.Microsecond)
			k.RunFor(20 * sim.Microsecond)
			tm.Stop()
		}
		k.Run()
		return []any{fires, k.Now(), c.Busy.Busy}, k.Stats()
	})
}

// TestAllocsChainedIRQ: once the CPU's pools are warm, a raise of a
// processless interrupt line — entry charge, chain handler, exit charge —
// allocates nothing.
func TestAllocsChainedIRQ(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	c := newCPU(k, 1)
	handled := func(*Seq) {}
	line := c.NewIRQChain("rx", func(done func()) { c.Seq().Exec(200).Hook(handled).RunThen(done) })
	cycle := func() {
		line.Raise()
		k.RunFor(5 * sim.Microsecond)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(256, cycle); avg != 0 {
		t.Fatalf("a chained interrupt allocates %.2f objects per raise, want 0", avg)
	}
}
