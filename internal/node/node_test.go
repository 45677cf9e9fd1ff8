package node_test

import (
	"fmt"
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
	k.Go("copy", func(p *sim.Proc) { stackCopy(n, p, 1<<20) })
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

// TestCopyChainMatchesExecWhile runs the same copies through Stack.Copy's
// callback chain and through the reference CPU.ExecWhile around MemMove,
// on a one-core, two-channel node where a rival process contends for the
// core and both channels. Every completion time, the row hit and miss
// counts, the bytes moved and the CPU busy time must be identical, and the
// chain must push and pop exactly the reference's events.
func TestCopyChainMatchesExecWhile(t *testing.T) {
	sizes := []int{9000, 0, 64, 20000, 1500, 8192}
	run := func(chain bool) ([]any, sim.KernelStats) {
		k := sim.NewKernel()
		defer k.Shutdown()
		cfg := node.HostConfig("h")
		cfg.Cores = 1
		n := node.New(k, cfg)
		k.Go("rival", func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				n.CPU.Exec(p, 700)
				n.Channels[i%2].Access(p, uint64(i%3)*8192, i%2 == 0, 3000)
				p.Sleep(sim.Duration(i%4) * 400 * sim.Nanosecond)
			}
		})
		// Each copy records its completion time and the core and busy
		// state the copier sees when it continues.
		var ends []any
		for c := 0; c < 2; c++ {
			k.Go("copier", func(p *sim.Proc) {
				for i, b := range sizes {
					if chain {
						stackCopy(n, p, b)
					} else if b > 0 { // copying nothing charges nothing
						n.CPU.ExecWhile(p, func() { n.MemMove(p, b) })
					}
					ends = append(ends, p.Now(), n.CPU.Cores.InUse(), n.CPU.Busy.Busy)
					p.Sleep(sim.Duration(i*c) * 500 * sim.Nanosecond)
				}
			})
		}
		k.Run()
		out := []any{ends, k.Now(), n.CPU.Busy.Busy, n.TotalDRAMBytes()}
		for _, ch := range n.Channels {
			out = append(out, ch.RowHits, ch.RowMiss, ch.Reads, ch.Writes)
		}
		return out, k.Stats()
	}
	want, wantStats := run(false)
	got, gotStats := run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("copy chain diverges from ExecWhile+MemMove:\n got %v\nwant %v", got, want)
	}
	if gotStats.Pushes != wantStats.Pushes || gotStats.Pops != wantStats.Pops {
		t.Fatalf("chain pushed/popped %d/%d events, reference %d/%d", gotStats.Pushes, gotStats.Pops, wantStats.Pushes, wantStats.Pops)
	}
	if gotStats.Switches >= wantStats.Switches {
		t.Fatalf("chain took %d switches, reference %d: want fewer", gotStats.Switches, wantStats.Switches)
	}
}

// stackCopy runs the node's Stack.Copy chain for a process, as the stack's
// own copy charge does.
func stackCopy(n *node.Node, p *sim.Proc, bytes int) { n.Stack.CopyStep(n.CPU.Seq(), bytes).Run(p) }

func TestCopyChainAllocs(t *testing.T) {
	// After the first copy warms the node's chain pool, a Stack.Copy
	// allocates nothing.
	k := sim.NewKernel()
	defer k.Shutdown()
	n := node.New(k, node.HostConfig("h"))
	k.Go("copier", func(p *sim.Proc) {
		for {
			stackCopy(n, p, 9000)
		}
	})
	cycle := func() { k.RunFor(sim.Microsecond) }
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(256, cycle); avg != 0 {
		t.Fatalf("Stack.Copy allocates %.2f objects per microsecond, want 0", avg)
	}
}
