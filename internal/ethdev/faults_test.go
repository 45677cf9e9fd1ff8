package ethdev

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// A corrupted frame must be rejected by the receiver's FCS verify (and
// counted), never delivered up the stack.
func TestCorruptedFrameDroppedAtRX(t *testing.T) {
	k := sim.NewKernel()
	link := NewLink(k, sim.Microsecond)
	a := newNode(k, "a", 1, link)
	b := newNode(k, "b", 2, link)
	ipa, ipb := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 2)
	ia := a.stack.AddIface(a.nic, ipa, netstack.Mask24)
	ib := b.stack.AddIface(b.nic, ipb, netstack.Mask24)
	ia.Neighbors[ipb] = b.nic.MAC()
	ib.Neighbors[ipa] = a.nic.MAC()

	in := faults.New(faults.Plan{Seed: 4, LinkCorruptProb: 1})
	link.Inject = in.LinkSite("l")

	k.Go("blast", func(p *sim.Proc) {
		u, _ := a.stack.UDPBind(0)
		for i := 0; i < 20; i++ {
			u.SendTo(p, ipb, 9, make([]byte, 1000))
		}
	})
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	if b.nic.Recov.FCSDrops != 20 {
		t.Fatalf("FCS drops %d, want 20", b.nic.Recov.FCSDrops)
	}
	if b.nic.RxFrames != 0 {
		t.Fatalf("%d corrupted frames delivered", b.nic.RxFrames)
	}
	if link.Inject.C.Corruptions != 20 {
		t.Fatalf("injector corruptions %d", link.Inject.C.Corruptions)
	}
	k.Shutdown()
}

// With drop injection the frames never arrive; with zero probabilities
// everything passes untouched even though FCS stamping is active.
func TestLinkDropAndCleanPass(t *testing.T) {
	k := sim.NewKernel()
	a, b := twoNodes(k)
	// twoNodes shares one link between the two NICs; fetch it from the NIC.
	link := a.nic.link
	in := faults.New(faults.Plan{Seed: 8, LinkDropProb: 1})
	link.Inject = in.LinkSite("l")
	k.Go("send", func(p *sim.Proc) {
		u, _ := a.stack.UDPBind(0)
		for i := 0; i < 5; i++ {
			u.SendTo(p, netstack.IPv4(10, 0, 0, 2), 9, make([]byte, 500))
		}
	})
	k.RunUntil(sim.Time(5 * sim.Millisecond))
	if b.nic.RxFrames != 0 || link.Inject.C.Drops != 5 {
		t.Fatalf("rx=%d drops=%d", b.nic.RxFrames, link.Inject.C.Drops)
	}

	// Now stop dropping: traffic flows and the FCS verify passes.
	link.Inject = faults.New(faults.Plan{Seed: 8}).LinkSite("clean")
	k.Go("send2", func(p *sim.Proc) {
		u, _ := a.stack.UDPBind(0)
		for i := 0; i < 5; i++ {
			u.SendTo(p, netstack.IPv4(10, 0, 0, 2), 9, make([]byte, 500))
		}
	})
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	if b.nic.RxFrames != 5 || b.nic.Recov.FCSDrops != 0 {
		t.Fatalf("clean pass rx=%d fcsDrops=%d", b.nic.RxFrames, b.nic.Recov.FCSDrops)
	}
	k.Shutdown()
}

// A frame corrupted on the node->switch cable must die at the switch
// ingress, not be forwarded onward.
func TestSwitchDropsCorruptedAtIngress(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 10e9, 500*sim.Nanosecond)
	nodes := make([]*testNode, 2)
	links := make([]*Link, 2)
	for i := range nodes {
		links[i] = NewLink(k, sim.Microsecond)
		nodes[i] = newNode(k, string(rune('a'+i)), uint32(i+1), links[i])
		ip := netstack.IPv4(10, 0, 0, byte(i+1))
		nodes[i].stack.AddIface(nodes[i].nic, ip, netstack.Mask24)
		sw.AttachPort(links[i], nodes[i].nic.MAC())
	}
	nodes[0].stack.Ifaces()[0].Neighbors[netstack.IPv4(10, 0, 0, 2)] = nodes[1].nic.MAC()

	in := faults.New(faults.Plan{Seed: 6, LinkCorruptProb: 1})
	links[0].Inject = in.LinkSite("uplink")

	k.Go("send", func(p *sim.Proc) {
		u, _ := nodes[0].stack.UDPBind(0)
		for i := 0; i < 10; i++ {
			u.SendTo(p, netstack.IPv4(10, 0, 0, 2), 9, make([]byte, 800))
		}
	})
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	if sw.Recov.FCSDrops != 10 {
		t.Fatalf("switch FCS drops %d, want 10", sw.Recov.FCSDrops)
	}
	if sw.Forwarded != 0 || nodes[1].nic.RxFrames != 0 {
		t.Fatalf("corrupted frames crossed the switch: fwd=%d rx=%d",
			sw.Forwarded, nodes[1].nic.RxFrames)
	}
	k.Shutdown()
}
