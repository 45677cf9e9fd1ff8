package cluster

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/ethdev"
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
// in an mcn5 rack at once and checks every byte each flow delivers. Frames
// cross the SRAM rings as the sender's buffers, the receiver recycles
// them, aliased frames are copied into ring jobs, and the NICs recycle TSO
// chunks and GRO frames; a buffer recycled while something still reads it
// shows up here as a corrupted byte. The flows share server 0: host<-DIMM
// and DIMM<-DIMM TCP, an mcnt stream host->DIMM (frames the fabric keeps
// for retransmission), and a TCP stream from a DIMM of server 1 over
// 10GbE (F4 egress, GRO, the uplink bridge) whose connection starts late,
// so its ARP broadcasts are fanned out to every DIMM mid-stream. Server 1
// runs mcn2, whose 1.5KB frames reach server 0's NIC back to back: it
// coalesces them and bridges the GRO-built frames into a DIMM's ring while
// the next burst is already being built.
func TestFrameOwnershipIntegrity(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	sw := ethdev.NewSwitch(k, "tor", 10e9, 500*sim.Nanosecond)
	var hosts []*node.Host
	for i, lvl := range []core.OptLevel{core.MCN5, core.MCN2} {
		h := node.NewHost(k, node.HostConfig(fmt.Sprintf("host%d", i)))
		h.McnSubnet, h.MACBase = byte(i+1), uint32(i+1)<<8
		h.AttachMCN(3, lvl.Options(), node.McnConfig(""))
		link := ethdev.NewLink(k, sim.Microsecond)
		h.AttachNIC(link, netstack.IPv4(10, 0, 0, byte(i+1)), uint32(0x40000+i))
		sw.AttachPort(link, h.NIC.MAC())
		hosts = append(hosts, h)
	}
	h0, d0, d1 := hosts[0], hosts[0].Mcns, hosts[1].Mcns
	fab := mcnt.Attach(k, h0, mcnt.DefaultParams())
	const size = 3 << 20

	type flow struct {
		name   string
		start  sim.Duration
		dial   func(p *sim.Proc) (netstack.Conn, error)
		listen func(p *sim.Proc) (netstack.Conn, error)
		got    int
		bad    int
	}
	tcpListen := func(s *netstack.Stack, port uint16) func(p *sim.Proc) (netstack.Conn, error) {
		l, err := s.Listen(port)
		if err != nil {
			t.Fatal(err)
		}
		return func(p *sim.Proc) (netstack.Conn, error) { return l.Accept(p) }
	}
	tcpDial := func(s *netstack.Stack, ip netstack.IP, port uint16) func(p *sim.Proc) (netstack.Conn, error) {
		return func(p *sim.Proc) (netstack.Conn, error) { return s.Connect(p, ip, port) }
	}
	ml, err := fab.Listen(d0[2].Node, 7003)
	if err != nil {
		t.Fatal(err)
	}
	flows := []*flow{
		{name: "host<-DIMM tcp", dial: tcpDial(d0[0].Stack, h0.HostMcnIP(), 7001), listen: tcpListen(h0.Stack, 7001)},
		{name: "DIMM<-DIMM tcp", dial: tcpDial(d0[1].Stack, d0[2].IP, 7002), listen: tcpListen(d0[2].Stack, 7002)},
		{name: "host->DIMM mcnt", dial: func(p *sim.Proc) (netstack.Conn, error) {
			return fab.Dial(p, h0.Node, d0[2].IP, 7003)
		}, listen: ml.AcceptConn},
		{name: "10GbE bridged tcp", start: 300 * sim.Microsecond,
			dial: tcpDial(d1[0].Stack, d0[0].IP, 7004), listen: tcpListen(d0[0].Stack, 7004)},
	}
	done := func() bool {
		for _, f := range flows {
			if f.got < size {
				return false
			}
		}
		return true
	}
	for i, f := range flows {
		i, f := i, f
		k.Go(f.name+"/sink", func(p *sim.Proc) {
			c, err := f.listen(p)
			if err != nil {
				t.Errorf("%s: accept: %v", f.name, err)
				return
			}
			buf := make([]byte, 5000)
			for f.got < size {
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
			for off := 0; off < size; off += len(chunk) {
				n := min(len(chunk), size-off)
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
		if f.got != size || f.bad != 0 {
			t.Errorf("%s: %d of %d bytes delivered, %d corrupted", f.name, f.got, size, f.bad)
		}
	}
	drv, wire, up := h0.Driver, hosts[1].NIC.TxFrames, h0.NIC.RxFrames
	if drv.Broadcasts == 0 || drv.BridgedIn == 0 || drv.SentNIC == 0 || drv.RelayedDimm == 0 || up >= wire {
		t.Fatalf("a hand-off path went unexercised: %d broadcasts, %d bridged in, %d sent to the NIC, %d relayed, %d frames coalesced into %d",
			drv.Broadcasts, drv.BridgedIn, drv.SentNIC, drv.RelayedDimm, wire, up)
	}
}
