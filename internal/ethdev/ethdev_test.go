package ethdev

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// testNode bundles a CPU + memory + stack + NIC.
type testNode struct {
	cpu   *cpu.CPU
	mem   *dram.Channel
	stack *netstack.Stack
	nic   *NIC
}

func newNode(k *sim.Kernel, name string, id uint32, link *Link) *testNode {
	c := cpu.New(k, name, 8, sim.GHz(3.4), cpu.DefaultOSCosts())
	mem := dram.NewChannel(k, dram.DDR4_3200())
	s := netstack.NewStack(k, c, name, netstack.DefaultProtoCosts())
	nic := New(k, c, mem, s, DefaultConfig(name+"/eth0", netstack.NewMAC(id)), link)
	return &testNode{cpu: c, mem: mem, stack: s, nic: nic}
}

// twoNodes builds a-link-b with addresses 10.0.0.1/2. The stacks share
// one frame pool, as stacks that exchange wire frames must.
func twoNodes(k *sim.Kernel) (*testNode, *testNode) {
	link := NewLink(k, sim.Microsecond)
	a := newNode(k, "a", 1, link)
	b := newNode(k, "b", 2, link)
	b.stack.SharePool(a.stack)
	ipa, ipb := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 2)
	ia := a.stack.AddIface(a.nic, ipa, netstack.Mask24)
	ib := b.stack.AddIface(b.nic, ipb, netstack.Mask24)
	ia.Neighbors[ipb] = b.nic.MAC()
	ib.Neighbors[ipa] = a.nic.MAC()
	return a, b
}

func TestPingOverNIC(t *testing.T) {
	k := sim.NewKernel()
	a, _ := twoNodes(k)
	var rtt sim.Duration
	var ok bool
	k.Go("ping", func(p *sim.Proc) {
		rtt, ok = a.stack.Ping(p, netstack.IPv4(10, 0, 0, 2), 56, sim.Second)
	})
	k.Run()
	if !ok {
		t.Fatal("ping lost")
	}
	// 2x(1us prop + serialization + DMA + IRQ + stack) — expect 3..40us.
	if rtt < 3*sim.Microsecond || rtt > 40*sim.Microsecond {
		t.Fatalf("rtt=%v", rtt)
	}
	k.Shutdown()
}

func TestTCPGoodputNear10G(t *testing.T) {
	k := sim.NewKernel()
	a, b := twoNodes(k)
	const total = 16 << 20
	var start, end sim.Time
	k.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.Listen(5001)
		c, _ := l.Accept(p)
		start = p.Now()
		c.RecvN(p, total)
		end = p.Now()
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := a.stack.Connect(p, netstack.IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, total)
	})
	k.RunUntil(sim.Time(10 * sim.Second))
	if end == 0 {
		t.Fatal("transfer did not finish")
	}
	gbps := float64(total) * 8 / end.Sub(start).Seconds() / 1e9
	// With TSO a single stream should reach most of the 10G line rate.
	if gbps < 5 || gbps > 10 {
		t.Fatalf("goodput %.2f Gbps", gbps)
	}
	k.Shutdown()
}

// lastAt is a test tap: the latest crossing of each site by a frame of at
// least 1000 bytes.
type lastAt map[netstack.TapSite]sim.Time

func (l lastAt) Frame(at sim.Time, site netstack.TapSite, _ string, frame []byte) {
	if len(frame) >= 1000 {
		l[site] = at
	}
}

// TestTraceStampsOrdered follows one data packet through the six taps
// Table III's 10GbE row reads: sender stack, DMA-TX, wire start, wire
// end, DMA-RX and receiver stack.
func TestTraceStampsOrdered(t *testing.T) {
	k := sim.NewKernel()
	a, b := twoNodes(k)
	tap := lastAt{}
	a.stack.Tap, a.nic.Tap, b.nic.Tap, b.stack.Tap = tap, tap, tap, tap
	k.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 1400)
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := a.stack.Connect(p, netstack.IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, 1400)
	})
	k.RunUntil(sim.Time(sim.Second))
	if tap[netstack.TapRx] == 0 {
		t.Fatal("no trace captured at receiver")
	}
	sites := []netstack.TapSite{netstack.TapTx, netstack.TapDMATx, netstack.TapWireStart,
		netstack.TapWireEnd, netstack.TapDMARx, netstack.TapRx}
	for i := 1; i < len(sites); i++ {
		if !(tap[sites[i-1]] < tap[sites[i]]) {
			t.Fatalf("sites out of order: %v=%v then %v=%v", sites[i-1], tap[sites[i-1]], sites[i], tap[sites[i]])
		}
	}
	// PHY segment includes the 1us propagation delay.
	if phy := tap[netstack.TapWireEnd].Sub(tap[netstack.TapWireStart]); phy < sim.Microsecond {
		t.Fatalf("PHY time %v < propagation delay", phy)
	}
	k.Shutdown()
}

func TestSwitchForwardsBetweenThreeNodes(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 10e9, 500*sim.Nanosecond)
	nodes := make([]*testNode, 3)
	for i := range nodes {
		link := NewLink(k, sim.Microsecond)
		nodes[i] = newNode(k, string(rune('a'+i)), uint32(i+1), link)
		ip := netstack.IPv4(10, 0, 0, byte(i+1))
		nodes[i].stack.AddIface(nodes[i].nic, ip, netstack.Mask24)
		sw.AttachPort(link, nodes[i].nic.MAC())
	}
	// Everyone knows everyone (static ARP).
	for i, n := range nodes {
		for j, m := range nodes {
			if i != j {
				n.stack.Ifaces()[0].Neighbors[netstack.IPv4(10, 0, 0, byte(j+1))] = m.nic.MAC()
			}
		}
	}
	var rtts [2]sim.Duration
	k.Go("pings", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			rtt, ok := nodes[0].stack.Ping(p, netstack.IPv4(10, 0, 0, byte(i+2)), 56, sim.Second)
			if !ok {
				panic("ping lost through switch")
			}
			rtts[i] = rtt
		}
	})
	k.Run()
	for _, rtt := range rtts {
		// Two links now: >= 4us propagation + switch latency.
		if rtt < 4*sim.Microsecond || rtt > 60*sim.Microsecond {
			t.Fatalf("switched rtt=%v", rtt)
		}
	}
	if sw.Forwarded == 0 {
		t.Fatal("switch forwarded nothing")
	}
	k.Shutdown()
}

func TestRxRingOverflowDrops(t *testing.T) {
	k := sim.NewKernel()
	a, b := twoNodes(k)
	// Make the receiver CPU absurdly slow so the RX ring overflows.
	b.cpu.Freq = sim.GHz(0.001)
	k.Go("blast", func(p *sim.Proc) {
		u, _ := a.stack.UDPBind(0)
		for i := 0; i < 2000; i++ {
			u.SendTo(p, netstack.IPv4(10, 0, 0, 2), 9, make([]byte, 1400))
		}
	})
	k.RunUntil(sim.Time(sim.Second))
	if b.nic.RxDropped == 0 {
		t.Fatal("expected RX ring drops under overload")
	}
	k.Shutdown()
}

func TestNICBandwidthShareTwoStreams(t *testing.T) {
	// Two TCP streams through one NIC pair share the 10G link roughly
	// evenly.
	k := sim.NewKernel()
	a, b := twoNodes(k)
	const each = 8 << 20
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		port := uint16(6000 + i)
		k.Go("server", func(p *sim.Proc) {
			l, _ := b.stack.Listen(port)
			c, _ := l.Accept(p)
			c.RecvN(p, each)
			done[i] = p.Now()
		})
		k.Go("client", func(p *sim.Proc) {
			c, err := a.stack.Connect(p, netstack.IPv4(10, 0, 0, 2), port)
			if err != nil {
				panic(err)
			}
			c.SendN(p, each)
		})
	}
	k.RunUntil(sim.Time(10 * sim.Second))
	if done[0] == 0 || done[1] == 0 {
		t.Fatal("streams did not finish")
	}
	ratio := float64(done[0]) / float64(done[1])
	if ratio < 0.33 || ratio > 3.0 {
		t.Fatalf("unfair sharing: %v vs %v", done[0], done[1])
	}
	k.Shutdown()
}
