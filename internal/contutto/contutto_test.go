package contutto

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/sim"
)

// runUntil steps k in 1ms slices until done or the limit: the prototype
// polls at mcn0, so its event queue never drains on its own.
func runUntil(k *sim.Kernel, done func() bool, limit sim.Duration) {
	for end := k.Now().Add(limit); !done() && k.Now() < end; {
		k.RunFor(sim.Millisecond)
	}
}

func TestMPIHelloWorldOnPrototype(t *testing.T) {
	// The Fig. 12 demonstration: an unmodified MPI program runs across
	// the POWER8 host and the NIOS II MCN node.
	k := sim.NewKernel()
	pt := New(k)
	eps := []cluster.Endpoint{
		{Node: pt.Host.Node, IP: pt.Host.HostMcnIP()},
		{Node: pt.Nios.Node, IP: pt.Nios.IP},
	}
	var hellos []string
	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) {
		if r.ID == 0 {
			hellos = append(hellos, "Hello world from processor power8, rank 0")
			msg := r.RecvData(1)
			hellos = append(hellos, string(msg))
		} else {
			r.SendData(0, []byte("Hello world from processor nios2, rank 1"))
		}
	})
	runUntil(k, w.Done, 30*sim.Second)
	if !w.Done() {
		t.Fatal("MPI hello world did not complete on the prototype")
	}
	if len(hellos) != 2 {
		t.Fatalf("hellos=%v", hellos)
	}
	k.Shutdown()
}

func TestPrototypeIsSlow(t *testing.T) {
	// Sec. VI-C: the prototype works but is not a performance vehicle; a
	// bulk transfer should be far below the simulated ASIC MCN's rate.
	k := sim.NewKernel()
	pt := New(k)
	var start, end sim.Time
	const total = 256 << 10
	k.Go("server", func(p *sim.Proc) {
		l, _ := pt.Nios.Stack.Listen(5001)
		c, _ := l.Accept(p)
		start = p.Now()
		c.RecvN(p, total)
		end = p.Now()
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := pt.Host.Stack.Connect(p, pt.Nios.IP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, total)
	})
	runUntil(k, func() bool { return end != 0 }, 60*sim.Second)
	if end == 0 {
		t.Fatal("prototype transfer did not finish")
	}
	bw := float64(total) / end.Sub(start).Seconds()
	if bw > 0.5e9 {
		t.Fatalf("prototype moved %.3g B/s; a 266MHz NIOS II cannot do that", bw)
	}
	if bw < 1e6 {
		t.Fatalf("prototype bandwidth %.3g B/s suspiciously low", bw)
	}
	k.Shutdown()
}
