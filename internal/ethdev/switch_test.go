package ethdev

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

func TestSwitchLearnsAndStopsFlooding(t *testing.T) {
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
	// ARP-based resolution: the first exchange floods (ARP request is
	// broadcast), after which unicast goes straight to the learned port.
	var ok1, ok2 bool
	k.Go("pinger", func(p *sim.Proc) {
		_, ok1 = nodes[0].stack.Ping(p, netstack.IPv4(10, 0, 0, 2), 56, sim.Second)
		_, ok2 = nodes[0].stack.Ping(p, netstack.IPv4(10, 0, 0, 2), 56, sim.Second)
	})
	k.RunUntil(sim.Time(sim.Second))
	if !ok1 || !ok2 {
		t.Fatal("pings over learned switch failed")
	}
	if sw.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
	// The replies and the second ping are unicast to learned stations:
	// flooding must be bounded to the initial unknowns.
	if sw.Flooded > 4 {
		t.Fatalf("flooded %d frames; learning is not sticking", sw.Flooded)
	}
	k.Shutdown()
}

func TestSwitchDropsMalformedAndSelfDirected(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 10e9, 500*sim.Nanosecond)
	link := NewLink(k, sim.Microsecond)
	n := newNode(k, "a", 1, link)
	n.stack.AddIface(n.nic, netstack.IPv4(10, 0, 0, 1), netstack.Mask24)
	sw.AttachPort(link, n.nic.MAC())
	// A frame addressed to a MAC learned on the same ingress port is
	// dropped (no hairpin).
	k.Go("self", func(p *sim.Proc) {
		frame := make([]byte, netstack.EthHeaderBytes+netstack.MinEthPayload)
		netstack.PutEth(frame, netstack.EthHeader{Dst: n.nic.MAC(), Src: n.nic.MAC(), Type: netstack.EtherTypeIPv4})
		n.nic.Transmit(p, netstack.Frame{Data: frame})
	})
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	if sw.Dropped == 0 {
		t.Fatal("hairpin frame should be dropped")
	}
	k.Shutdown()
}
