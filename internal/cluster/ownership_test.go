package cluster

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/ethdev"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

// flowByte is byte off of flow's stream: position-dependent and distinct
// per flow, so a byte from a buffer recycled while still referenced (a
// stale segment of the same flow, or another flow's) fails the check.
func flowByte(flow, off int) byte {
	x := uint32(off)*2654435761 + uint32(flow)*0x9e3779b9
	return byte(x>>24) ^ byte(x>>11)
}

// TestFrameOwnershipIntegrity runs every way a frame buffer changes hands
// at once and checks every byte each flow delivers; a buffer recycled
// while something still reads it shows up as a corrupted byte. Each world
// runs its stacks with checksum offload or bypass, so a corrupted segment
// reaches the application instead of being retransmitted.
//
// The mcn5 rack: frames cross the SRAM rings as the sender's buffers, the
// receiver recycles them, aliased frames are copied into ring jobs, and
// the NICs recycle TSO chunks, GRO frames and the wire frames they
// deliver. The flows share server 0: host<-DIMM and DIMM<-DIMM TCP, an
// mcnt stream host->DIMM (frames the fabric keeps for retransmission),
// and a TCP stream from a DIMM of server 1 over 10GbE (F4 egress, GRO,
// the uplink bridge) that starts late. Server 0's DIMMs resolve each
// other with ARP broadcasts, which F2 also sends out the uplink and the
// switch floods.
// Server 1 runs mcn2, whose 1.5KB frames reach server 0's NIC
// back to back: it coalesces them and bridges the GRO-built frames into a
// DIMM's ring while the next burst is already being built. A third,
// conventional host makes every flood reach two NICs, and a one-way UDP
// flow from server 1's other DIMM to a DIMM of server 0 that never
// answers is unknown unicast to the switch for its whole life: each of
// its datagrams is flooded to both.
//
// The 10GbE cluster: three conventional nodes resolve each other with
// ARP broadcasts, stream TCP into one node, whose NIC coalesces the
// interleaved segments, and one node's cable corrupts frames, which the
// switch's FCS check drops and TCP retransmits.
func TestFrameOwnershipIntegrity(t *testing.T) {
	t.Run("mcn5 rack", rackOwnership)
	t.Run("10GbE cluster", clusterOwnership)
}

// flow is one byte stream whose bytes are flowByte(index, offset).
type flow struct {
	name   string
	start  sim.Duration
	dial   func(p *sim.Proc) (netstack.Conn, error)
	listen func(p *sim.Proc) (netstack.Conn, error)
	got    int
	bad    int
}

const flowSize = 3 << 20

func tcpListen(t *testing.T, s *netstack.Stack, port uint16) func(p *sim.Proc) (netstack.Conn, error) {
	l, err := s.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	return func(p *sim.Proc) (netstack.Conn, error) { return l.Accept(p) }
}

func tcpDial(s *netstack.Stack, ip netstack.IP, port uint16) func(p *sim.Proc) (netstack.Conn, error) {
	return func(p *sim.Proc) (netstack.Conn, error) { return s.Connect(p, ip, port) }
}

// runFlows starts every flow's sink and source, runs k until each has
// delivered flowSize bytes (200 ms at most) and checks every byte.
func runFlows(t *testing.T, k *sim.Kernel, flows []*flow) {
	done := func() bool {
		for _, f := range flows {
			if f.got < flowSize {
				return false
			}
		}
		return true
	}
	for i, f := range flows {
		k.Go(f.name+"/sink", func(p *sim.Proc) {
			c, err := f.listen(p)
			if err != nil {
				t.Errorf("%s: accept: %v", f.name, err)
				return
			}
			buf := make([]byte, 5000)
			for f.got < flowSize {
				n, ok := c.Recv(p, buf)
				for j := 0; j < n; j++ {
					if buf[j] != flowByte(i, f.got+j) {
						f.bad++
					}
				}
				f.got += n
				if !ok {
					return
				}
			}
		})
		k.Go(f.name+"/source", func(p *sim.Proc) {
			p.Sleep(f.start)
			c, err := f.dial(p)
			if err != nil {
				t.Errorf("%s: dial: %v", f.name, err)
				return
			}
			chunk := make([]byte, 7001) // odd size: segment and frame boundaries drift
			for off := 0; off < flowSize; off += len(chunk) {
				n := min(len(chunk), flowSize-off)
				for j := 0; j < n; j++ {
					chunk[j] = flowByte(i, off+j)
				}
				if err := c.Send(p, chunk[:n]); err != nil {
					t.Errorf("%s: send: %v", f.name, err)
					return
				}
			}
		})
	}
	for i := 0; i < 200 && !done(); i++ {
		k.RunFor(sim.Millisecond)
	}
	for _, f := range flows {
		if f.got != flowSize || f.bad != 0 {
			t.Errorf("%s: %d of %d bytes delivered, %d corrupted", f.name, f.got, flowSize, f.bad)
		}
	}
}

func rackOwnership(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	sw := ethdev.NewSwitch(k, 10e9, 500*sim.Nanosecond)
	var hosts []*node.Host
	for i, lvl := range []core.OptLevel{core.MCN5, core.MCN2, -1} {
		h := node.NewHost(k, node.HostConfig(fmt.Sprintf("host%d", i)))
		if i > 0 {
			h.Stack.SharePool(hosts[0].Stack)
		}
		if lvl >= 0 {
			h.McnSubnet, h.MACBase = byte(i+1), uint32(i+1)<<8
			h.AttachMCN(3, lvl.Options(), node.McnConfig(""))
		}
		link := ethdev.NewLink(k, sim.Microsecond)
		h.AttachNIC(link, netstack.IPv4(10, 0, 0, byte(i+1)), uint32(0x40000+i))
		sw.AttachPort(link, h.NIC.MAC())
		hosts = append(hosts, h)
	}
	h0, d0, d1 := hosts[0], hosts[0].Mcns, hosts[1].Mcns
	fab := mcnt.Attach(k, h0, mcnt.DefaultParams())
	ml, err := fab.Listen(d0[2].Node, 7003)
	if err != nil {
		t.Fatal(err)
	}
	flows := []*flow{
		{name: "host<-DIMM tcp", dial: tcpDial(d0[0].Stack, h0.HostMcnIP(), 7001), listen: tcpListen(t, h0.Stack, 7001)},
		{name: "DIMM<-DIMM tcp", dial: tcpDial(d0[1].Stack, d0[2].IP, 7002), listen: tcpListen(t, d0[2].Stack, 7002)},
		{name: "host->DIMM mcnt", dial: func(p *sim.Proc) (netstack.Conn, error) {
			return fab.Dial(p, h0.Node, d0[2].IP, 7003)
		}, listen: ml.AcceptConn},
		{name: "10GbE bridged tcp", start: 300 * sim.Microsecond,
			dial: tcpDial(d1[0].Stack, d0[0].IP, 7004), listen: tcpListen(t, d0[0].Stack, 7004)},
	}
	// The one-way UDP flow: its sender knows the receiver's MAC, so no
	// ARP exchange ever teaches the switch where it lives.
	src, dst := d1[1], d0[2]
	src.Stack.Ifaces()[0].Neighbors[dst.IP] = dst.Port.McnMAC()
	const dgrams, dgramLen = 600, 1400
	udpFlow := len(flows)
	var udpGot, udpBad int
	sink, err := dst.Stack.UDPBind(7005)
	if err != nil {
		t.Fatal(err)
	}
	k.Go("unknown unicast/sink", func(p *sim.Proc) {
		for {
			d, ok := sink.Recv(p)
			if !ok {
				return
			}
			udpGot++
			seq := int(d.Data[0]) | int(d.Data[1])<<8
			for j := 2; j < len(d.Data); j++ {
				if d.Data[j] != flowByte(udpFlow, seq*dgramLen+j) {
					udpBad++
				}
			}
		}
	})
	k.Go("unknown unicast/source", func(p *sim.Proc) {
		u, _ := src.Stack.UDPBind(7005)
		buf := make([]byte, dgramLen)
		for seq := 0; seq < dgrams; seq++ {
			buf[0], buf[1] = byte(seq), byte(seq>>8)
			for j := 2; j < dgramLen; j++ {
				buf[j] = flowByte(udpFlow, seq*dgramLen+j)
			}
			if err := u.SendTo(p, dst.IP, 7005, buf); err != nil {
				t.Errorf("unknown unicast: %v", err)
				return
			}
			p.Sleep(3 * sim.Microsecond)
		}
	})
	runFlows(t, k, flows)
	if udpGot < dgrams/2 || udpBad != 0 {
		t.Errorf("unknown unicast udp: %d of %d datagrams delivered, %d bytes corrupted", udpGot, dgrams, udpBad)
	}
	drv, wire, up := h0.Driver, hosts[1].NIC.TxFrames, h0.NIC.RxFrames
	if drv.Broadcasts == 0 || drv.BridgedIn == 0 || drv.SentNIC == 0 || drv.RelayedDimm == 0 || up >= wire || sw.Flooded < dgrams/2 {
		t.Fatalf("a hand-off path went unexercised: %d broadcasts, %d bridged in, %d sent to the NIC, %d relayed, %d frames coalesced into %d, %d floods",
			drv.Broadcasts, drv.BridgedIn, drv.SentNIC, drv.RelayedDimm, wire, up, sw.Flooded)
	}
}

func clusterOwnership(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	c := NewEthCluster(k, 3, node.HostConfig(""))
	for _, h := range c.Nodes {
		h.Stack.ChecksumBypass = true
	}
	in := faults.New(faults.Plan{Seed: 5, LinkCorruptProb: 0.002})
	c.Links[2].Inject = in.LinkSite("link/node2")
	eps := c.Endpoints()
	flows := []*flow{
		{name: "node0->node1 tcp", dial: tcpDial(eps[0].Node.Stack, eps[1].IP, 7001), listen: tcpListen(t, eps[1].Node.Stack, 7001)},
		{name: "node2->node1 tcp", dial: tcpDial(eps[2].Node.Stack, eps[1].IP, 7002), listen: tcpListen(t, eps[1].Node.Stack, 7002)},
		{name: "node1->node0 tcp", start: 200 * sim.Microsecond,
			dial: tcpDial(eps[1].Node.Stack, eps[0].IP, 7003), listen: tcpListen(t, eps[0].Node.Stack, 7003)},
	}
	runFlows(t, k, flows)
	n0, n1, n2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	if n0.Stack.ARPRequests == 0 || c.Switch.Recov.FCSDrops == 0 || n1.NIC.RxFrames >= n0.NIC.TxFrames+n2.NIC.TxFrames {
		t.Fatalf("a hand-off path went unexercised: %d ARP requests, %d frames corrupted, %d frames coalesced into %d",
			n0.Stack.ARPRequests, c.Switch.Recov.FCSDrops, n0.NIC.TxFrames+n2.NIC.TxFrames, n1.NIC.RxFrames)
	}
}
