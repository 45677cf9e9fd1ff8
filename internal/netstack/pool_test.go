package netstack_test

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/ethdev"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// TestSharedPoolBoundedOver10GbE runs a long one-way TCP stream between
// two 10GbE NICs whose stacks share one frame pool. The sender cuts every
// wire segment from the pool and the receiving NIC recycles it, with the
// GRO frames it builds; the ACKs go the other way. Once the stream is
// warm the pool's idle buffers must stay within a bound: a receiver that
// recycled what it does not own would grow the pool without limit, and a
// sender whose frames never came back would drain it.
func TestSharedPoolBoundedOver10GbE(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	link := ethdev.NewLink(k, sim.Microsecond)
	var stacks []*netstack.Stack
	for i, name := range []string{"a", "b"} {
		c := cpu.New(k, name, 8, sim.GHz(3.4), cpu.DefaultOSCosts())
		s := netstack.NewStack(k, c, name, netstack.DefaultProtoCosts())
		if i > 0 {
			s.SharePool(stacks[0])
		}
		nic := ethdev.New(k, c, dram.NewChannel(k, dram.DDR4_3200()), s, ethdev.DefaultConfig(name+"/eth0", netstack.NewMAC(uint32(i+1))), link)
		s.AddIface(nic, netstack.IPv4(10, 0, 0, byte(i+1)), netstack.Mask24)
		stacks = append(stacks, s)
	}
	a, b := stacks[0], stacks[1]
	sent := 0
	k.Go("sink", func(p *sim.Proc) {
		l, _ := b.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 1<<40)
	})
	k.Go("source", func(p *sim.Proc) {
		c, err := a.Connect(p, netstack.IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			c.SendN(p, 1<<20)
			sent += 1 << 20
		}
	})
	k.RunUntil(sim.Time(5 * sim.Millisecond))
	warm, peak := a.PoolBuffers(), 0
	for i := 0; i < 60; i++ {
		k.RunFor(sim.Millisecond)
		peak = max(peak, a.PoolBuffers())
	}
	t.Logf("%d MB sent; idle pool buffers %d warm, %d at most after", sent>>20, warm, peak)
	if sent < 50<<20 {
		t.Fatalf("only %d MB sent", sent>>20)
	}
	if peak > 2*warm+64 {
		t.Fatalf("the shared pool grew from %d idle buffers to %d", warm, peak)
	}
}
