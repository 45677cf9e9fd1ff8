package ethdev

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// The process forms below are the references the NIC's and the switch's
// callback chains are checked against: the driver transmit, the TX
// engine, NAPI and a switch port's transmitter as they were when each ran
// in a process.

// refTransmit is Transmit's process form: the driver charge, the NIC
// cutting every segment of a TSO chunk, then each put into the ring,
// waiting while it is full.
func refTransmit(n *NIC, p *sim.Proc, f netstack.Frame) {
	n.cpu.Exec(p, n.cfg.DriverTxCycles)
	frames := []wireFrame{{data: f.Data, pooled: f.Pooled}}
	if f.TSOSegSize > 0 {
		frames = frames[:0]
		for off := 0; ; {
			seg, next := netstack.SegmentTSO(n.stack, f.Data, f.TSOSegSize, off)
			frames = append(frames, wireFrame{data: seg, pooled: f.Pooled || next != 0 || off != 0})
			if off = next; off == 0 {
				break
			}
		}
		if f.Pooled && len(frames) > 1 {
			n.stack.RecycleFrameBuf(f.Data)
		}
	}
	for _, wf := range frames {
		n.txq.Put(p, wf)
	}
}

// refTxEngine is the TX engine's process form.
func refTxEngine(n *NIC, p *sim.Proc) {
	for {
		burstStart := n.txq.Len() == 0
		wf, ok := n.txq.Get(p)
		if !ok {
			return
		}
		n.tap(netstack.TapDMATx, wf.data)
		if burstStart {
			p.Sleep(n.cfg.DMALat)
		}
		if n.mem != nil {
			n.mem.Read(p, 0x4000_0000, len(wf.data))
		}
		n.tap(netstack.TapWireStart, wf.data)
		ser := n.serialization(len(wf.data))
		p.Sleep(ser)
		n.Busy.AddBusy(ser)
		n.TxBytes.Add(p.Now(), int64(len(wf.data)))
		n.TxFrames++
		n.link.deliver(n, wf)
	}
}

// refNapi is NAPI's process form.
func refNapi(n *NIC, p *sim.Proc) {
	for {
		wf, ok := n.rxq.Get(p)
		if !ok {
			return
		}
		p.Sleep(n.cfg.DMALat)
		n.cpu.Exec(p, n.cpu.Costs.IRQEntryCycles+n.cpu.Costs.IRQExitCycles)
		burst := []wireFrame{wf}
		for {
			more, ok := n.rxq.TryGet()
			if !ok {
				break
			}
			burst = append(burst, more)
		}
		var frames []netstack.Frame
		for _, b := range burst {
			if n.mem != nil {
				n.mem.Write(p, 0x4800_0000, len(b.data))
			}
			n.tap(netstack.TapDMARx, b.data)
			frames = append(frames, netstack.Frame{Data: b.data, Pooled: b.pooled})
		}
		if n.cfg.LRO {
			frames = n.gro.Coalesce(n.stack, frames, 64<<10)
		}
		for _, f := range frames {
			n.deliverUp(p, f)
		}
	}
}

// refPortTransmitter is a switch port's transmitter in its process form.
func refPortTransmitter(sp *switchPort, p *sim.Proc) {
	for {
		f, ok := sp.outq.Get(p)
		if !ok {
			return
		}
		p.Sleep(sim.AtRate(int64(len(f.data)+24), sp.sw.rateBps/8))
		sp.pipeline.send(sp.sw.latency, f)
	}
}

// chainNet is three nodes on a switch, with one site — "Transmit",
// "txEngine", "napi" or "switchPort" — in its process form when ref is
// set. The NICs' TX rings hold 24 frames, so a 64KB TSO chunk fills one
// and its senders wait for room; two cores per node and rivals on every
// CPU and memory channel make the charges and DMAs queue.
type chainNet struct {
	k     *sim.Kernel
	sw    *Switch
	nodes []*testNode
	ref   bool
	site  string
}

func newChainNet(site string, ref bool) *chainNet {
	k := sim.NewKernel()
	cn := &chainNet{k: k, sw: NewSwitch(k, 10e9, 500*sim.Nanosecond), ref: ref, site: site}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("n%d", i)
		link := NewLink(k, sim.Microsecond)
		c := cpu.New(k, name, 2, sim.GHz(3.4), cpu.DefaultOSCosts())
		mem := dram.NewChannel(k, dram.DDR4_3200())
		s := netstack.NewStack(k, c, name, netstack.DefaultProtoCosts())
		if i > 0 {
			s.SharePool(cn.nodes[0].stack)
		}
		cfg := DefaultConfig(name+"/eth0", netstack.NewMAC(uint32(i+1)))
		cfg.TxRing = 24
		n := newNIC(k, c, mem, s, cfg, link)
		if cn.swapped("txEngine") {
			k.Go(name+"/tx-engine", func(p *sim.Proc) { refTxEngine(n, p) })
		} else {
			k.At(k.Now(), n.txNext)
		}
		if cn.swapped("napi") {
			k.Go(name+"/napi", func(p *sim.Proc) { refNapi(n, p) })
		} else {
			k.Go(name+"/napi", n.napi)
		}
		s.AddIface(n, netstack.IPv4(10, 0, 0, byte(i+1)), netstack.Mask24)
		sp := cn.sw.attach(link, n.MAC())
		if cn.swapped("switchPort") {
			k.Go(fmt.Sprintf("tor/port%d", i), func(p *sim.Proc) { refPortTransmitter(sp, p) })
		} else {
			k.At(k.Now(), sp.next)
		}
		cn.nodes = append(cn.nodes, &testNode{cpu: c, mem: mem, stack: s, nic: n})
	}
	return cn
}

func (cn *chainNet) swapped(site string) bool { return cn.ref && cn.site == site }

// transmit hands f to n's NIC from p, in Transmit's process form when it
// is the swapped site.
func (cn *chainNet) transmit(n *testNode, p *sim.Proc, f netstack.Frame) {
	if cn.swapped("Transmit") {
		refTransmit(n.nic, p, f)
		return
	}
	n.nic.Transmit(p, f)
}

// tcpChunk returns a pool frame holding one TCP segment of n payload
// bytes from a to b's port 9, which nobody listens on.
func tcpChunk(a, b *testNode, n int) []byte {
	const hdrs = netstack.EthHeaderBytes + netstack.IPv4HeaderBytes + netstack.TCPHeaderBytes
	src, dst := a.stack.Ifaces()[0].IP, b.stack.Ifaces()[0].IP
	frame := a.stack.GetFrameBuf(hdrs + n)
	payload := frame[hdrs:]
	for i := range payload {
		payload[i] = byte(i)
	}
	netstack.PutEth(frame, netstack.EthHeader{Dst: b.nic.MAC(), Src: a.nic.MAC(), Type: netstack.EtherTypeIPv4})
	netstack.PutIPv4(frame[netstack.EthHeaderBytes:], netstack.IPv4Header{
		TotalLen: uint16(netstack.IPv4HeaderBytes + netstack.TCPHeaderBytes + n),
		TTL:      64, Proto: netstack.ProtoTCP, Src: src, Dst: dst,
	})
	netstack.PutTCP(frame[netstack.EthHeaderBytes+netstack.IPv4HeaderBytes:], netstack.TCPHeader{
		SrcPort: 4000, DstPort: 9, Seq: 1, Flags: netstack.TCPAck | netstack.TCPPsh, Window: 1 << 16,
	}, src, dst, payload)
	return frame
}

// udpTo returns a frame holding an n-byte UDP datagram from a to b's
// port 7, from a's pool when pooled.
func udpTo(a, b *testNode, n int, pooled bool) []byte {
	const hdrs = netstack.EthHeaderBytes + netstack.IPv4HeaderBytes + netstack.UDPHeaderBytes
	frame := make([]byte, hdrs+n)
	if pooled {
		frame = a.stack.GetFrameBuf(hdrs + n)
		clear(frame)
	}
	src, dst := a.stack.Ifaces()[0].IP, b.stack.Ifaces()[0].IP
	netstack.PutEth(frame, netstack.EthHeader{Dst: b.nic.MAC(), Src: a.nic.MAC(), Type: netstack.EtherTypeIPv4})
	ip := frame[netstack.EthHeaderBytes:]
	netstack.PutIPv4(ip, netstack.IPv4Header{TotalLen: uint16(len(ip)), TTL: 64, Proto: netstack.ProtoUDP, Src: src, Dst: dst})
	netstack.PutUDP(ip[netstack.IPv4HeaderBytes:], netstack.UDPHeader{SrcPort: 7, DstPort: 7, Len: uint16(netstack.UDPHeaderBytes + n)})
	return frame
}

// load runs the traffic and returns what the run must reproduce: TCP
// streams n0->n1, n2->n1 (both into one switch port) and n1->n0 whose
// first packets resolve their neighbours with flooded ARP broadcasts;
// pings n0->n2; two processes on n0 handing datagrams and TSO chunks
// straight to its NIC, the first frames to n2 flooded while the switch
// has not learned it; and rivals on every CPU and memory channel.
func (cn *chainNet) load(t *testing.T) []any {
	k, nd := cn.k, cn.nodes
	var ends []any
	stream := func(from, to *testNode, port uint16, n int) {
		k.Go("sink", func(p *sim.Proc) {
			l, _ := to.stack.Listen(port)
			c, _ := l.Accept(p)
			ends = append(ends, "recv", port, c.RecvN(p, n), p.Now())
		})
		k.Go("source", func(p *sim.Proc) {
			c, err := from.stack.Connect(p, to.stack.Ifaces()[0].IP, port)
			if err != nil {
				t.Error(err)
				return
			}
			c.SendN(p, n)
			ends = append(ends, "sent", port, p.Now())
		})
	}
	stream(nd[0], nd[1], 5001, 1500<<10)
	stream(nd[2], nd[1], 5002, 1<<20)
	stream(nd[1], nd[0], 5003, 512<<10)
	k.Go("ping", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			rtt, ok := nd[0].stack.Ping(p, nd[2].stack.Ifaces()[0].IP, 56+300*i, sim.Second)
			ends = append(ends, "ping", rtt, ok)
			p.Sleep(sim.Duration(i) * 3 * sim.Microsecond)
		}
	})
	u, _ := nd[2].stack.UDPBind(7)
	k.Go("udp-sink", func(p *sim.Proc) {
		for {
			d, ok := u.Recv(p)
			if !ok {
				return
			}
			ends = append(ends, "udp", len(d.Data), p.Now())
		}
	})
	for w := 0; w < 2; w++ {
		k.Go("direct", func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				f := netstack.Frame{Data: udpTo(nd[0], nd[2], 200+400*i+w, i%3 != 1), Pooled: i%3 != 1}
				if i%2 == 1 {
					f = netstack.Frame{Data: tcpChunk(nd[0], nd[2], 9000+3001*w), TSOSegSize: 1460, Pooled: true}
				}
				cn.transmit(nd[0], p, f)
				ends = append(ends, "direct", w, i, p.Now())
				p.Sleep(sim.Duration(i+w) * 2 * sim.Microsecond)
			}
		})
	}
	for _, n := range nd {
		c, mem := n.cpu, n.mem
		k.Go("rival", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				c.Exec(p, int64(700+i%5*900))
				mem.Access(p, uint64(i%7)*8192, i%2 == 0, 2048)
				p.Sleep(sim.Duration(i%4) * 150 * sim.Nanosecond)
			}
		})
	}
	k.RunUntil(sim.Time(5 * sim.Millisecond))
	out := []any{ends, cn.sw.Forwarded, cn.sw.Flooded, cn.sw.Dropped}
	for _, n := range nd {
		out = append(out, n.cpu.Busy.Busy, n.mem.Bytes.Total, n.mem.RowHits, n.mem.RowMiss,
			n.nic.TxBytes.Total, n.nic.RxBytes.Total, n.nic.TxFrames, n.nic.RxFrames, n.nic.RxDropped, n.nic.Busy.Busy,
			n.stack.Drops, n.stack.ARPRequests)
	}
	return out
}

// TestNICChainsMatchProcessForms swaps one converted site at a time back
// to its process form and runs the same traffic both ways. Every
// completion time, busy time and byte count must be identical, the kernel
// must push and pop the same events, and the chains must take strictly
// fewer switches.
func TestNICChainsMatchProcessForms(t *testing.T) {
	for _, site := range []string{"Transmit", "txEngine", "napi", "switchPort"} {
		t.Run(site, func(t *testing.T) {
			run := func(ref bool) ([]any, sim.KernelStats) {
				cn := newChainNet(site, ref)
				defer cn.k.Shutdown()
				return cn.load(t), cn.k.Stats()
			}
			want, ws := run(true)
			got, gs := run(false)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("chain diverges from the process form:\n got %v\nwant %v", got, want)
			}
			if gs.Pushes != ws.Pushes || gs.Pops != ws.Pops {
				t.Fatalf("chain pushed/popped %d/%d events, process form %d/%d", gs.Pushes, gs.Pops, ws.Pushes, ws.Pops)
			}
			if gs.Switches >= ws.Switches {
				t.Fatalf("chain took %d switches, process form %d: want fewer", gs.Switches, ws.Switches)
			}
			t.Logf("switches %d -> %d, events %d", ws.Switches, gs.Switches, gs.Pops)
		})
	}
}
