package netstack_test

import (
	"runtime"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/ethdev"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// TestSharedPoolBoundedOver10GbE runs a long one-way TCP stream between
// two 10GbE NICs whose stacks share one frame pool. The sender cuts every
// wire segment from the pool, the receiving NIC hands them and the GRO
// frames it builds to its stack, whose TCP keeps each frame until the
// reader has consumed it; the ACKs go the other way. Once the stream is
// warm the pool's idle buffers must stay within a bound, and the stream
// must allocate little: a receiver that recycled what it does not own
// would grow the pool without limit, and one that kept frames without
// recycling them would leave the sender to allocate every frame afresh.
// The greedy reader drains the stream as it arrives; the pausing reader
// stops for 2 ms after every 4 MB, so the whole 1 MB window sits in held
// frames while the sender waits.
func TestSharedPoolBoundedOver10GbE(t *testing.T) {
	t.Run("greedy reader", func(t *testing.T) { sharedPoolStream(t, 0) })
	t.Run("pausing reader", func(t *testing.T) { sharedPoolStream(t, 2*sim.Millisecond) })
}

func sharedPoolStream(t *testing.T, pause sim.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		for {
			c.RecvN(p, 4<<20)
			p.Sleep(pause)
		}
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
	warm, peak, sent0 := a.PoolBuffers(), 0, sent
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 60; i++ {
		k.RunFor(sim.Millisecond)
		peak = max(peak, a.PoolBuffers())
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d MB sent; idle pool buffers %d warm, %d at most after; %d KB allocated", sent>>20, warm, peak, alloc>>10)
	if sent < 50<<20 {
		t.Fatalf("only %d MB sent", sent>>20)
	}
	if peak > 2*warm+64 {
		t.Fatalf("the shared pool grew from %d idle buffers to %d", warm, peak)
	}
	if window := uint64(sent - sent0); alloc > window/16 {
		t.Fatalf("%d KB allocated while %d MB were sent", alloc>>10, window>>20)
	}
}
