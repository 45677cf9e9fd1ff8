package ethdev

import (
	"runtime"
	"testing"

	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// TestAllocsNICRoundtrip bounds steady-state allocations for a full NIC
// traversal: stack TX -> txq -> link -> rxq -> napi poll (burst scratch,
// GRO) -> stack RX, in both directions (ICMP echo + reply). Descriptor
// queues, transmit calls, napi burst/frame scratch, the event arena, and
// proc shells are all pooled, and the wire frames go back to the pool, so
// the remaining allocations are the echo's own: the pinging process, its
// waiter, signal and message, and the reply's copy and process. It
// measures 10 (12 while
// the NIC's transmit, TX engine and NAPI were processes). Generous
// headroom, but a per-frame leak (for example, losing the napi scratch
// reuse) blows well past it.
func TestAllocsNICRoundtrip(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	a, _ := twoNodes(k)
	dst := netstack.IPv4(10, 0, 0, 2)
	ping := func() {
		k.Go("ping", func(p *sim.Proc) {
			if _, ok := a.stack.Ping(p, dst, 56, sim.Second); !ok {
				t.Error("ping lost")
			}
		})
		k.RunUntil(k.Now().Add(sim.Millisecond))
	}
	for i := 0; i < 64; i++ {
		ping() // warm pools and ARP state
	}
	avg := testing.AllocsPerRun(128, ping)
	t.Logf("allocs per echo roundtrip: %.1f", avg)
	const ceiling = 30
	if avg > ceiling {
		t.Fatalf("NIC echo roundtrip allocates %.1f objects, ceiling %d", avg, ceiling)
	}
}

// chunkTap counts the TSO chunks a stack hands its NIC.
type chunkTap struct{ n int }

func (c *chunkTap) Frame(_ sim.Time, site netstack.TapSite, _ string, f []byte) {
	if site == netstack.TapTx && len(f) > 1514 {
		c.n++
	}
}

// TestAllocsTSOChunk bounds a warm 10GbE TCP stream's allocations per 64KB
// TSO chunk at zero. The segments are cut from the frame pool the two
// stacks share and the chunk goes back to it once cut, GRO builds into
// pool buffers, the receiving NIC recycles both after delivery and the
// sender's NIC the receiver's ACKs, the transmit and receive paths are
// pooled chains, and the link's in-flight FIFO carries frames without a
// closure each. (9.94 per chunk when the segments were cut from one
// fresh allocation and the wire left every frame to the collector.)
func TestAllocsTSOChunk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := sim.NewKernel()
	defer k.Shutdown()
	a, b := twoNodes(k)
	tap := &chunkTap{}
	a.stack.Tap = tap
	k.Go("sink", func(p *sim.Proc) {
		l, _ := b.stack.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 1<<40)
	})
	k.Go("source", func(p *sim.Proc) {
		c, err := a.stack.Connect(p, netstack.IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			t.Error(err)
			return
		}
		c.SendN(p, 1<<40)
	})
	k.RunUntil(sim.Time(5 * sim.Millisecond))
	chunks0 := tap.n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.RunUntil(sim.Time(15 * sim.Millisecond))
	runtime.ReadMemStats(&after)
	chunks := tap.n - chunks0
	per := float64(after.Mallocs-before.Mallocs) / float64(chunks)
	t.Logf("%d TSO chunks: %.2f allocations each", chunks, per)
	if chunks < 100 {
		t.Fatalf("only %d TSO chunks in the window", chunks)
	}
	if per > 0 {
		t.Fatalf("a TSO chunk costs %.2f allocations, want none", per)
	}
}
