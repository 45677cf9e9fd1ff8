package cpu

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

func newCPU(k *sim.Kernel, cores int) *CPU {
	return New(k, "t", cores, sim.GHz(1), DefaultOSCosts()) // 1GHz: 1 cycle = 1ns
}

func TestExecChargesCycles(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 1)
	var end sim.Time
	k.Go("w", func(p *sim.Proc) {
		c.Exec(p, 1000)
		end = p.Now()
	})
	k.Run()
	if end != sim.Time(1000*sim.Nanosecond) {
		t.Fatalf("1000 cycles @1GHz ended at %v, want 1us", end)
	}
	if c.Busy.Busy != 1000*sim.Nanosecond {
		t.Fatalf("busy=%v", c.Busy.Busy)
	}
	k.Shutdown()
}

func TestCoresLimitParallelism(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 2)
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		k.Go("w", func(p *sim.Proc) {
			c.Exec(p, 100)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	if ends[0] != ends[1] || ends[2] != ends[3] {
		t.Fatalf("ends=%v; want pairs", ends)
	}
	if ends[2] != 2*ends[0] {
		t.Fatalf("second wave should take a second slot: %v", ends)
	}
	k.Shutdown()
}

func TestIRQRunsAsynchronously(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 2)
	var handled sim.Time
	k.Go("main", func(p *sim.Proc) {
		c.NewIRQ("test", func(hp *sim.Proc) {
			c.Exec(hp, 100)
			handled = hp.Now()
		}).Raise()
		// Raise must not block the raiser.
		if p.Now() != 0 {
			panic("Raise blocked")
		}
	})
	k.Run()
	// entry 1200 + 100 + (exit charged after): handler body done at 1300ns.
	if handled != sim.Time(1300*sim.Nanosecond) {
		t.Fatalf("handled at %v, want 1.3us", handled)
	}
	k.Shutdown()
}

func TestTaskletFIFO(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 1)
	var order []int
	k.Go("main", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			i := i
			c.ScheduleTasklet(func(tp *sim.Proc) { order = append(order, i) })
		}
	})
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order=%v", order)
	}
	k.Shutdown()
}

func TestHRTimerFiresPeriodically(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 2)
	var fires []sim.Time
	h := c.NewHRTimer(10*sim.Microsecond, func(p *sim.Proc) {
		fires = append(fires, p.Now())
	})
	h.Start()
	k.RunFor(35 * sim.Microsecond)
	h.Stop()
	k.Run()
	if len(fires) != 3 {
		t.Fatalf("fires=%v, want 3 in 35us", fires)
	}
	// Each body runs shortly after its 10us boundary (IRQ+tasklet costs).
	for i, f := range fires {
		lo := sim.Time(10 * (i + 1) * int(sim.Microsecond))
		hi := lo.Add(10 * sim.Microsecond)
		if f < lo || f > hi {
			t.Fatalf("fire %d at %v, want in [%v,%v]", i, f, lo, hi)
		}
	}
	if h.Fires != 3 {
		t.Fatalf("Fires=%d", h.Fires)
	}
	k.Shutdown()
}

func TestHRTimerStopPreventsFiring(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 1)
	count := 0
	h := c.NewHRTimer(5*sim.Microsecond, func(p *sim.Proc) { count++ })
	h.Start()
	k.RunFor(12 * sim.Microsecond)
	h.Stop()
	k.RunFor(50 * sim.Microsecond)
	if count != 2 {
		t.Fatalf("count=%d, want 2", count)
	}
	k.Shutdown()
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 2)
	k.Go("w", func(p *sim.Proc) {
		c.Exec(p, 500)
		p.Sleep(500 * sim.Nanosecond)
	})
	k.Run()
	// One of two cores busy for half of the 1us run: 500ns of core time.
	if busy, now := c.Busy.Busy, k.Now(); busy != 500*sim.Nanosecond || now != sim.Time(sim.Microsecond) {
		t.Fatalf("busy=%v over %v, want 500ns over 1us", busy, now)
	}
	k.Shutdown()
}

func TestExecWhile(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 1)
	var blockedUntil sim.Time
	k.Go("copier", func(p *sim.Proc) {
		c.ExecWhile(p, func() { p.Sleep(3 * sim.Microsecond) })
	})
	k.Go("other", func(p *sim.Proc) {
		p.Sleep(sim.Nanosecond)
		c.Exec(p, 1) // must wait for the copier to release the core
		blockedUntil = p.Now()
	})
	k.Run()
	if blockedUntil <= sim.Time(3*sim.Microsecond) {
		t.Fatalf("core was not held during ExecWhile: other finished at %v", blockedUntil)
	}
	if c.Busy.Busy < 3*sim.Microsecond {
		t.Fatalf("busy accounting missed ExecWhile: %v", c.Busy.Busy)
	}
	k.Shutdown()
}
