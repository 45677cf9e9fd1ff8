package node_test

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

func TestTableIIConfigs(t *testing.T) {
	h := node.HostConfig("h")
	if h.Cores != 8 || h.FreqHz != sim.GHz(3.4) || h.Channels != 2 {
		t.Fatalf("host config %+v", h)
	}
	m := node.McnConfig("m")
	if m.Cores != 4 || m.FreqHz != sim.GHz(2.45) || m.Channels != 1 {
		t.Fatalf("mcn config %+v", m)
	}
	c := node.ContuttoConfig("c")
	if c.Cores != 1 || c.FreqHz != 266e6 {
		t.Fatalf("contutto config %+v", c)
	}
}

func TestNodeCopyChargesMemory(t *testing.T) {
	k := sim.NewKernel()
	n := node.New(k, node.HostConfig("h"))
	k.Go("copy", func(p *sim.Proc) {
		n.Stack.Copy(p, 1<<20)
	})
	k.Run()
	// A 1MB copy moves 2MB (read + write) through DRAM.
	if got := n.TotalDRAMBytes(); got < 2<<20 {
		t.Fatalf("copy moved only %d DRAM bytes", got)
	}
	// And the core was held for the duration.
	if n.CPU.Busy.Busy <= 0 {
		t.Fatal("copy did not occupy a core")
	}
	k.Shutdown()
}

func TestMemStreamUsesAllChannels(t *testing.T) {
	k := sim.NewKernel()
	n := node.New(k, node.HostConfig("h"))
	k.Go("s", func(p *sim.Proc) { n.MemStream(p, 4<<20, false) })
	k.Run()
	for i, ch := range n.Channels {
		if ch.Bytes.Total == 0 {
			t.Fatalf("channel %d saw no traffic", i)
		}
	}
	k.Shutdown()
}

func TestAttachMCNDistributesChannels(t *testing.T) {
	k := sim.NewKernel()
	h := node.NewHost(k, node.HostConfig("h"))
	mcns := h.AttachMCN(4, core.MCN0.Options(), node.McnConfig(""))
	if len(mcns) != 4 {
		t.Fatalf("attached %d", len(mcns))
	}
	if mcns[0].Dimm.ChannelIdx == mcns[1].Dimm.ChannelIdx {
		t.Fatal("first two DIMMs should land on different channels")
	}
	if mcns[0].Dimm.ChannelIdx != mcns[2].Dimm.ChannelIdx {
		t.Fatal("DIMMs 0 and 2 should share channel 0")
	}
	// No static neighbor entries: resolution happens via real ARP.
	for _, m := range mcns {
		if n := len(m.Stack.Ifaces()[0].Neighbors); n != 0 {
			t.Fatalf("%s should start with an empty neighbor table, has %d entries", m.Name, n)
		}
	}
	k.Shutdown()
}

func TestAttachMCNTwicePanics(t *testing.T) {
	k := sim.NewKernel()
	h := node.NewHost(k, node.HostConfig("h"))
	h.AttachMCN(1, core.MCN0.Options(), node.McnConfig(""))
	defer func() {
		if recover() == nil {
			t.Fatal("second AttachMCN should panic")
		}
		k.Shutdown()
	}()
	h.AttachMCN(1, core.MCN0.Options(), node.McnConfig(""))
}

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
	pt := node.NewContutto(k)
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
	pt := node.NewContutto(k)
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
