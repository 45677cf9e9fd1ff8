package core

import (
	"runtime"
	"testing"

	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// TestAllocsMcnPingRoundtrip bounds the heap allocations of one host->DIMM
// echo round trip once pools and ARP state are warm: the request crosses
// the DIMM's RX ring and the reply its TX ring, through the polled drain at
// mcn0 and the MCN-DMA engines at mcn5. Each ceiling keeps the headroom
// ethdev's TestAllocsNICRoundtrip had over its measured count (30 over
// 12): mcn0 measures 9 and mcn5 10.
func TestAllocsMcnPingRoundtrip(t *testing.T) {
	for _, c := range []struct {
		level   OptLevel
		ceiling float64
	}{{MCN0, 34}, {MCN5, 38}} {
		t.Run(c.level.String(), func(t *testing.T) {
			fx := newFixture(c.level.Options(), 1, 1)
			defer fx.k.Shutdown()
			done := false
			echo := func(p *sim.Proc) {
				if _, ok := fx.hostStk.Ping(p, fx.mcns[0].ip, 56, sim.Second); !ok {
					t.Error("ping lost")
				}
				done = true
			}
			// Step only until the reply lands: at mcn0 the HR-timer poll
			// never idles, and its ticks are not the round trip's cost.
			ping := func() {
				done = false
				fx.k.Go("ping", echo)
				for !done {
					fx.k.RunUntil(fx.k.Now().Add(sim.Microsecond))
				}
			}
			for i := 0; i < 64; i++ {
				ping() // warm pools and ARP state
			}
			avg := testing.AllocsPerRun(128, ping)
			t.Logf("allocs per echo roundtrip: %.1f", avg)
			if avg > c.ceiling {
				t.Fatalf("%v echo roundtrip allocates %.1f objects, ceiling %.0f", c.level, avg, c.ceiling)
			}
		})
	}
}

// TestAllocsMcnDataSegment streams TCP host<-DIMM and DIMM<-DIMM at mcn5
// and, once pools, rings and connections are warm, requires the data path
// to allocate nothing per segment: frames cross the SRAM rings as the
// sender's pool buffers and go back to the server's one pool, and every
// interrupt line and MCN-DMA batch is bound once. The one allocation left
// is the kernel's record of each process spawned, so the window's
// allocations must equal its spawns. The DIMM rx drain runs with no
// process, so what spawns is the MCN-DMA batch handler, which enters the
// stack: about one per 32KB data message here (2 767 over 2 470 messages;
// two per message when every interrupt spawned).
func TestAllocsMcnDataSegment(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fx := newFixture(MCN5.Options(), 3, 2)
	defer fx.k.Shutdown()
	stream(t, fx, fx.mcns[0].stack, fx.hostStk, fx.hostIP)
	stream(t, fx, fx.mcns[1].stack, fx.mcns[2].stack, fx.mcns[2].ip)
	fx.k.RunUntil(sim.Time(5 * sim.Millisecond))
	msgs := func() int64 { return fx.mcns[0].drv.TxMsgs + fx.mcns[1].drv.TxMsgs }
	msgs0, spawns0 := msgs(), fx.k.Stats().Spawns
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fx.k.RunUntil(sim.Time(10 * sim.Millisecond))
	runtime.ReadMemStats(&after)
	n, allocs, spawns := msgs()-msgs0, after.Mallocs-before.Mallocs, fx.k.Stats().Spawns-spawns0
	t.Logf("%d data messages: %d allocations, %d process spawns", n, allocs, spawns)
	if n < 1000 {
		t.Fatalf("only %d data messages in the window", n)
	}
	if allocs != spawns {
		t.Fatalf("%d allocations over %d data messages, beyond the %d process records (%.3f per message)",
			allocs, n, spawns, float64(allocs-spawns)/float64(n))
	}
}

// stream runs an endless TCP stream from one stack to another.
func stream(t *testing.T, fx *fixture, from, to *netstack.Stack, toIP netstack.IP) {
	fx.k.Go("sink", func(p *sim.Proc) {
		l, _ := to.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 1<<40)
	})
	fx.k.Go("source", func(p *sim.Proc) {
		c, err := from.Connect(p, toIP, 5001)
		if err != nil {
			t.Error(err)
			return
		}
		c.SendN(p, 1<<40)
	})
}

// TestSwitchesMcnDataSegment bounds the coroutine switches per TCP data
// segment (one 32KB message) of a warm stream host<-DIMM and DIMM<-DIMM
// at mcn5, every process of the server counted: the sender's socket
// calls and transmitter, both drivers, the MCN-DMA batch handlers, the
// receiver's RPS context and its ACKs. A segment crosses TCP, IP and the
// driver with one park on transmit and on receive: 11.5 and 15.0 per
// message, where parking once per IP and driver charge took 16.0 and
// 19.5. The ceilings sit about 10% over the counts.
func TestSwitchesMcnDataSegment(t *testing.T) {
	for _, c := range []struct {
		name    string
		to      func(fx *fixture) (*netstack.Stack, netstack.IP)
		ceiling float64
	}{
		{"host<-dimm", func(fx *fixture) (*netstack.Stack, netstack.IP) { return fx.hostStk, fx.hostIP }, 12.7},
		{"dimm<-dimm", func(fx *fixture) (*netstack.Stack, netstack.IP) { return fx.mcns[2].stack, fx.mcns[2].ip }, 16.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(MCN5.Options(), 3, 2)
			defer fx.k.Shutdown()
			to, ip := c.to(fx)
			stream(t, fx, fx.mcns[0].stack, to, ip)
			fx.k.RunUntil(sim.Time(2 * sim.Millisecond))
			msgs0, sw0 := fx.mcns[0].drv.TxMsgs, fx.k.Stats().Switches
			fx.k.RunUntil(sim.Time(6 * sim.Millisecond))
			n, sw := fx.mcns[0].drv.TxMsgs-msgs0, fx.k.Stats().Switches-sw0
			per := float64(sw) / float64(n)
			t.Logf("%d data messages, %d switches: %.2f per message", n, sw, per)
			if n < 500 {
				t.Fatalf("only %d data messages in the window", n)
			}
			if per > c.ceiling {
				t.Fatalf("%.2f switches per data message, ceiling %.1f", per, c.ceiling)
			}
		})
	}
}
