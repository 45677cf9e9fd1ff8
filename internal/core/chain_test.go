package core

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/sram"
)

// The process forms below are the references the drivers' callback chains
// are checked against: what each converted path did, charge by charge,
// before its charges ran as one chain.

// refExec is CPU.Exec's process form: acquire a core, sleep, release.
func refExec(c *cpu.CPU, p *sim.Proc, n int64) {
	d := c.CyclesDur(n)
	if d <= 0 {
		return
	}
	c.Cores.Acquire(p)
	p.Sleep(d)
	c.Cores.Release()
	c.Busy.AddBusy(d)
}

// refDrainRX is the DIMM rx drain's process form.
func refDrainRX(drv *DimmDriver, p *sim.Proc) {
	if drv.draining {
		return
	}
	drv.draining = true
	defer func() { drv.draining = false }()
	d := drv.dimm
	for {
		for !d.Buf.RX.Empty() {
			msg := d.Buf.RX.Pop()
			if drv.ChanTap != nil {
				drv.ChanTap.Frame(p.Now(), netstack.TapDimmPop, d.Name, msg)
			}
			drv.CPU.ExecWhile(p, func() {
				n := sram.HeaderBytes + len(msg)
				p.Sleep(d.mcnAccessTime(n))
				d.McnAccess.Add(p.Now(), int64(n))
				drv.local.Write(p, 0x1800_0000, len(msg))
			})
			drv.RxMsgs++
			drv.flowQueue(msg).TryPut(msg)
		}
		d.Buf.RxPoll = false
		if d.Buf.RX.Empty() {
			return
		}
		d.Buf.RxPoll = true
	}
}

// refServeAlert is the ALERT_N handler's process form.
func refServeAlert(hd *HostDriver, p *sim.Proc, src *HostPort) {
	for _, port := range hd.ports {
		if port.dimm.ChannelIdx != src.dimm.ChannelIdx {
			continue
		}
		refExec(hd.CPU, p, hd.Costs.PollCheckCycles)
		if !port.dimm.Buf.TxPoll {
			continue
		}
		if port.draining {
			port.alertPending = true
			continue
		}
		hd.spawnDrain(port)
	}
}

// refDrain is the host drain's process form: per message, the read under
// a held core, the invalidate and the forwarding charge one by one, then
// the hand-off to sink (the fast-path transport, if one is attached) or
// the forwarding engine.
func refDrain(hd *HostDriver, p *sim.Proc, port *HostPort, sink *fastSink) {
	if port.draining {
		return
	}
	port.draining = true
	defer func() { port.draining = false }()
	d := port.dimm
	d.HostAccess(p, 64, false, true)
	idle := 0
	for {
		if !d.Online() {
			return
		}
		for !d.Buf.TX.Empty() {
			idle = 0
			msg := d.Buf.TX.Pop()
			if hd.ChanTap != nil {
				hd.ChanTap.Frame(p.Now(), netstack.TapHostPop, d.Name, msg)
			}
			hd.CPU.ExecWhile(p, func() {
				d.HostAccess(p, sram.HeaderBytes+len(msg), false, !hd.Opts.UncachedCopies)
			})
			lines := int64(len(msg)/64 + 1)
			refExec(hd.CPU, p, hd.Costs.InvalidateCyclesPerLine*lines+hd.Costs.RxPerMsgCycles)
			refExec(hd.CPU, p, hd.Costs.ForwardCycles)
			refRoute(hd, p, port, msg, sink)
		}
		d.Buf.TxPoll = false
		d.HostAccess(p, 8, true, false)
		if idle >= 2 {
			if port.alertPending || !d.Buf.TX.Empty() {
				port.alertPending = false
				idle = 0
				continue
			}
			return
		}
		idle++
		p.Sleep(napiLinger)
	}
}

// refDeliver is the MCN-DMA batch handler's process form.
func refDeliver(b *rxBatch, p *sim.Proc, sink *fastSink) {
	hd := b.port.drv
	for _, msg := range b.pkts {
		refExec(hd.CPU, p, hd.Costs.RxPerMsgCycles)
		refExec(hd.CPU, p, hd.Costs.ForwardCycles)
		refRoute(hd, p, b.port, msg, sink)
	}
	clear(b.pkts)
	b.pkts = b.pkts[:0]
	b.e.served = append(b.e.served, b)
}

// refRoute is the hand-off of a message popped from port's DIMM in its
// process form: the fast-path branch the forwarding engine had, run by
// sink's process form, or the engine's rules.
func refRoute(hd *HostDriver, p *sim.Proc, port *HostPort, msg []byte, sink *fastSink) {
	if eth, ok := fastFrame(msg); ok && hd.FastRx != nil && eth.Dst == port.hostMAC {
		sink.proc(hd.CPU, p, msg)
		hd.Stack.RecycleFrameBuf(msg)
		return
	}
	hd.forward(p, port, msg)
}

// refServeRx is a DIMM receive context's process form.
func refServeRx(drv *DimmDriver, p *sim.Proc, q *sim.Queue[[]byte], sink *fastSink) {
	for {
		msg, ok := q.Get(p)
		if !ok {
			return
		}
		refExec(drv.CPU, p, drv.Costs.RxPerMsgCycles)
		if _, ok := fastFrame(msg); ok && drv.FastRx != nil {
			sink.proc(drv.CPU, p, msg)
			drv.Stack.RecycleFrameBuf(msg)
		} else {
			drv.Stack.RxFrame(p, drv, netstack.Frame{Data: msg, Pooled: true})
		}
	}
}

// A fastSink is a test fast-path transport on one node: per frame it
// charges fastSinkCycles on the receiving CPU, then records the frame.
// steps is its FastRx step form and proc its process form.
type fastSink struct {
	name   string
	k      *sim.Kernel
	ends   *[]any
	record func(*cpu.Seq) // onRecord, bound once
}

const fastSinkCycles = 260

// fastEtherType marks the test transport's frames.
const fastEtherType = 0x88B5

func newFastSink(k *sim.Kernel, name string, ends *[]any) *fastSink {
	s := &fastSink{name: name, k: k, ends: ends}
	s.record = s.onRecord
	return s
}

func (s *fastSink) steps(q *cpu.Seq, _ []byte) { q.Exec(fastSinkCycles).Hook(s.record) }

func (s *fastSink) onRecord(q *cpu.Seq) { s.log(q.Buf) }

func (s *fastSink) proc(c *cpu.CPU, p *sim.Proc, frame []byte) {
	refExec(c, p, fastSinkCycles)
	s.log(frame)
}

func (s *fastSink) log(frame []byte) {
	*s.ends = append(*s.ends, s.name, len(frame), frame[len(frame)-1], s.k.Now())
}

// fastLoad attaches a fastSink to the host and to every DIMM and sends
// test-transport frames DIMM->host, host->DIMM, DIMM->DIMM (relayed by F3)
// and from a DIMM to an unknown MAC (dropped), two senders each, by the
// devices' step forms. With ref every receive context that reaches FastRx
// runs its process form: the host's drain, its MCN-DMA batch handlers and
// the DIMMs' RPS contexts. Both runs serve the DIMMs' RPS queues with
// processes spawned here, so they spawn alike.
func fastLoad(t *testing.T, fx *fixture, ref bool) func() []any {
	var ends []any
	hostSink := newFastSink(fx.k, "host", &ends)
	fx.hd.FastRx = func(q *cpu.Seq, _ *HostPort, frame []byte) { hostSink.steps(q, frame) }
	if ref {
		for _, port := range fx.hd.ports {
			port.drainBody = func(p *sim.Proc) { refDrain(fx.hd, p, port, hostSink) }
		}
		for _, e := range fx.hd.dmas {
			for i := 0; i < refBatchStock; i++ {
				b := &rxBatch{e: e}
				b.irq = fx.hostCPU.NewIRQ("ref-dma-rx", func(p *sim.Proc) { refDeliver(b, p, hostSink) })
				e.served = append(e.served, b)
			}
		}
	}
	for _, m := range fx.mcns {
		sink := newFastSink(fx.k, m.dimm.Name, &ends)
		drv := m.drv
		drv.FastRx = sink.steps
		for j := range drv.rxq {
			q := sim.NewQueue[[]byte](fx.k, 0)
			drv.rxq[j] = q
			fx.k.Go(fmt.Sprintf("%s/rps%d", m.dimm.Name, j), func(p *sim.Proc) {
				if ref {
					refServeRx(drv, p, q, sink)
				} else {
					drv.serveRx(p, q)
				}
			})
		}
	}
	frame := func(s *netstack.Stack, src, dst netstack.MAC, n int, tag byte) []byte {
		b := s.GetFrameBuf(netstack.EthHeaderBytes + n)
		netstack.PutEth(b, netstack.EthHeader{Dst: dst, Src: src, Type: fastEtherType})
		for i := netstack.EthHeaderBytes; i < len(b); i++ {
			b[i] = tag
		}
		return b
	}
	port0 := fx.hd.ports[0]
	m0, m1, m2 := fx.mcns[0], fx.mcns[1], fx.mcns[2]
	viaDimm := func(m *mcnNode, src, dst netstack.MAC, tag byte) {
		for w := 0; w < 2; w++ {
			fx.k.Go("fast-tx", func(p *sim.Proc) {
				for i, n := range []int{90, 6000, 1, 1400} {
					q := m.cpu.Seq()
					q.Buf = frame(m.stack, src, dst, n+w, tag+byte(i))
					m.drv.TransmitSteps(q)
					q.Run(p)
					p.Sleep(sim.Duration(i+w+1) * 800 * sim.Nanosecond)
				}
			})
		}
	}
	viaDimm(m0, port0.mcnMAC, port0.hostMAC, 0x10)
	viaDimm(m1, fx.hd.ports[1].mcnMAC, port0.mcnMAC, 0x20)
	viaDimm(m2, fx.hd.ports[2].mcnMAC, netstack.NewMAC(0x7777), 0x30)
	for w := 0; w < 2; w++ {
		fx.k.Go("fast-tx", func(p *sim.Proc) {
			for i, n := range []int{3000, 64, 700} {
				q := fx.hostCPU.Seq()
				q.Buf = frame(fx.hostStk, port0.hostMAC, port0.mcnMAC, n+w, 0x40+byte(i))
				port0.TransmitSteps(q)
				q.Run(p)
				p.Sleep(sim.Duration(i+w) * 600 * sim.Nanosecond)
			}
		})
	}
	return func() []any {
		got := map[any]int{}
		for i := 0; i < len(ends); i += 4 {
			got[ends[i]]++
		}
		// The host takes DIMM 0's eight frames; DIMM 0 the host's six and
		// DIMM 1's eight; DIMM 2's eight go nowhere.
		if want := map[any]int{"host": 8, m0.dimm.Name: 14}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("fast-path frames delivered %v, want %v", got, want)
		}
		return ends
	}
}

// refDimmTransmit and refHostTransmit are the transmit paths' process
// forms, for a pooled frame.
func refDimmTransmit(drv *DimmDriver, p *sim.Proc, frame []byte) {
	refExec(drv.CPU, p, drv.Costs.TxSetupCycles)
	e := drv.qdisc
	if drv.Opts.DMA {
		refExec(drv.CPU, p, drv.Costs.DMASetupCycles)
		e = drv.dma
	}
	e.submit(ringJob{kind: dimmTx, drv: drv, msg: frame})
}

func refHostTransmit(port *HostPort, p *sim.Proc, frame []byte) {
	hd := port.drv
	if !port.carrier {
		hd.Recov.CarrierDrops++
		hd.Stack.RecycleFrameBuf(frame)
		return
	}
	refExec(hd.CPU, p, hd.Costs.TxSetupCycles)
	if hd.Opts.DMA {
		refExec(hd.CPU, p, hd.Costs.DMASetupCycles)
	}
	hd.enqueue(port, frame, true)
}

// refBatchStock is how many process-form MCN-DMA batches a reference run
// hands each engine: every batch the run uses comes from this stock.
const refBatchStock = 64

// udpFrame returns a pool frame of s holding an n-byte UDP datagram to
// port 9, addressed from src to dst.
func udpFrame(s *netstack.Stack, srcMAC, dstMAC netstack.MAC, src, dst netstack.IP, n int) []byte {
	const hdrs = netstack.EthHeaderBytes + netstack.IPv4HeaderBytes + netstack.UDPHeaderBytes
	frame := s.GetFrameBuf(hdrs + n)
	netstack.PutEth(frame, netstack.EthHeader{Dst: dstMAC, Src: srcMAC, Type: netstack.EtherTypeIPv4})
	ip := frame[netstack.EthHeaderBytes:]
	netstack.PutIPv4(ip, netstack.IPv4Header{TotalLen: uint16(len(ip)), TTL: 64, Proto: netstack.ProtoUDP, Src: src, Dst: dst})
	netstack.PutUDP(ip[netstack.IPv4HeaderBytes:], netstack.UDPHeader{SrcPort: 9, DstPort: 9, Len: uint16(netstack.UDPHeaderBytes + n)})
	clear(frame[hdrs:])
	return frame
}

// txLoad sends UDP datagrams from DIMM 0 to the host through its driver
// and from the host to DIMM 0 through its port, two senders each way,
// by the devices' step forms run as charge sequences or, with ref, by
// their process forms. It returns what the run must reproduce: when each
// transmit returned and when each datagram arrived.
func txLoad(_ *testing.T, fx *fixture, ref bool) func() []any {
	var ends []any
	m, port := fx.mcns[0], fx.hd.ports[0]
	for _, s := range []*netstack.Stack{fx.hostStk, m.stack} {
		u, _ := s.UDPBind(9)
		fx.k.Go("udp-sink", func(p *sim.Proc) {
			for {
				d, ok := u.Recv(p)
				if !ok {
					return
				}
				ends = append(ends, s.Host, len(d.Data), p.Now())
			}
		})
	}
	for w := 0; w < 2; w++ {
		fx.k.Go("dimm-tx", func(p *sim.Proc) {
			for i, n := range []int{200, 8000, 1, 3000} {
				frame := udpFrame(m.stack, port.mcnMAC, port.hostMAC, m.ip, fx.hostIP, n+w)
				if ref {
					refDimmTransmit(m.drv, p, frame)
				} else {
					q := m.cpu.Seq()
					q.Buf = frame
					m.drv.TransmitSteps(q)
					q.Run(p)
				}
				ends = append(ends, "dimm-tx", p.Now())
				p.Sleep(sim.Duration(i*w+1) * 900 * sim.Nanosecond)
			}
		})
		fx.k.Go("host-tx", func(p *sim.Proc) {
			for i, n := range []int{5000, 64, 1500, 700} {
				frame := udpFrame(fx.hostStk, port.hostMAC, port.mcnMAC, fx.hostIP, m.ip, n+w)
				if ref {
					refHostTransmit(port, p, frame)
				} else {
					q := fx.hostCPU.Seq()
					q.Buf = frame
					port.TransmitSteps(q)
					q.Run(p)
				}
				ends = append(ends, "host-tx", p.Now())
				p.Sleep(sim.Duration(i+w) * 700 * sim.Nanosecond)
			}
		})
	}
	return func() []any { return ends }
}

// chainLoad drives a fixture for a differential run: a TCP stream each way
// between the host and DIMM 0, a stream from the last DIMM to the host, a
// DIMM-to-DIMM ping relayed through the host, and rivals contending for
// the host's cores and channel and for DIMM 0's cores and local channel.
// It returns what the run must reproduce exactly.
func chainLoad(t *testing.T, fx *fixture) []any {
	var ends []any
	port := uint16(5000)
	stream := func(from, to *netstack.Stack, toIP netstack.IP, n int) {
		port++
		port := port
		fx.k.Go("server", func(p *sim.Proc) {
			l, _ := to.Listen(port)
			c, _ := l.Accept(p)
			got := c.RecvN(p, n)
			ends = append(ends, "recv", got, p.Now())
		})
		fx.k.Go("client", func(p *sim.Proc) {
			c, err := from.Connect(p, toIP, port)
			if err != nil {
				t.Error(err)
				return
			}
			c.SendN(p, n)
			ends = append(ends, "sent", p.Now())
		})
	}
	last := fx.mcns[len(fx.mcns)-1]
	stream(fx.hostStk, fx.mcns[0].stack, fx.mcns[0].ip, 96<<10)
	stream(last.stack, fx.hostStk, fx.hostIP, 128<<10)
	if len(fx.mcns) > 2 {
		stream(fx.mcns[1].stack, fx.hostStk, fx.hostIP, 64<<10)
	}
	fx.k.Go("ping", func(p *sim.Proc) {
		rtt, ok := fx.mcns[0].stack.Ping(p, last.ip, 56, sim.Second)
		ends = append(ends, "ping", rtt, ok)
	})
	rival := func(c *cpu.CPU, ch *dram.Channel) {
		fx.k.Go("rival", func(p *sim.Proc) {
			for i := 0; i < 150; i++ {
				refExec(c, p, int64(500+i%7*300))
				ch.Access(p, uint64(i%5)*8192, i%2 == 0, 4096)
				p.Sleep(sim.Duration(i%4) * 300 * sim.Nanosecond)
			}
		})
	}
	rival(fx.hostCPU, fx.channels[0])
	rival(fx.mcns[0].cpu, fx.mcns[0].local)
	fx.k.RunUntil(sim.Time(400 * sim.Microsecond))
	out := []any{ends, fx.hostCPU.Busy.Busy, fx.hd.DeliveredHost, fx.hd.RelayedDimm, fx.hd.PollRounds, fx.hd.TxBusy}
	for _, ch := range fx.channels {
		out = append(out, ch.Bytes.Total, ch.RowHits, ch.RowMiss)
	}
	for _, m := range fx.mcns {
		out = append(out, m.cpu.Busy.Busy, m.local.Bytes.Total, m.drv.RxMsgs, m.drv.TxMsgs,
			m.dimm.HostReads.Total, m.dimm.HostWrites.Total, m.dimm.McnAccess.Total, m.dimm.RxIRQs, m.dimm.Alerts)
	}
	return out
}

// TestDriverChainsMatchProcessForms swaps one converted path at a time
// back to its process form and runs the same traffic both ways. Every
// completion time, busy time and byte count must be identical, the kernel
// must push and pop the same events, and the chains must take strictly
// fewer switches.
func TestDriverChainsMatchProcessForms(t *testing.T) {
	const stock = refBatchStock
	for _, c := range []struct {
		name   string
		levels []OptLevel
		swap   func(fx *fixture)
		load   func(t *testing.T, fx *fixture, ref bool) func() []any
	}{
		{"DimmDriver.drainRX", []OptLevel{MCN0, MCN5}, func(fx *fixture) {
			for _, m := range fx.mcns {
				drv := m.drv
				m.dimm.SetRxIRQ(m.cpu.NewIRQ("ref-rx", func(p *sim.Proc) { refDrainRX(drv, p) }).Raise)
			}
		}, nil},
		{"HostDriver.serveAlert", []OptLevel{MCN1, MCN3}, func(fx *fixture) {
			for _, port := range fx.hd.ports {
				port.alertn = fx.hostCPU.NewIRQ("ref-alertn", func(p *sim.Proc) { refServeAlert(fx.hd, p, port) })
			}
		}, nil},
		{"HostDriver.drain", []OptLevel{MCN0, MCN1}, func(fx *fixture) {
			for _, port := range fx.hd.ports {
				port.drainBody = func(p *sim.Proc) { refDrain(fx.hd, p, port, nil) }
			}
		}, nil},
		{"rxBatch.deliver", []OptLevel{MCN5}, func(fx *fixture) {
			// Every batch the run hands out comes from this stock, each
			// bound to the process-form handler.
			for _, e := range fx.hd.dmas {
				for i := 0; i < stock; i++ {
					b := &rxBatch{e: e}
					b.irq = fx.hostCPU.NewIRQ("ref-dma-rx", func(p *sim.Proc) { refDeliver(b, p, nil) })
					e.served = append(e.served, b)
				}
			}
		}, nil},
		// Without MCN-DMA a transmit makes one charge; there is nothing
		// to chain. The stacks reach the step forms from their own
		// chains, whose process form netstack's tests hold them to.
		{"Transmit", []OptLevel{MCN5}, nil, txLoad},
		// The fast-path transport's steps run at the end of each receive
		// context's charge sequence: the drain (mcn0, mcn1), the MCN-DMA
		// batch handler (mcn5) and the DIMMs' RPS contexts (all three).
		{"FastRx", []OptLevel{MCN0, MCN1, MCN5}, nil, fastLoad},
	} {
		for _, level := range c.levels {
			t.Run(c.name+"/"+level.String(), func(t *testing.T) {
				run := func(ref bool) ([]any, sim.KernelStats) {
					fx := newFixture(level.Options(), 3, 2)
					defer fx.k.Shutdown()
					if ref && c.swap != nil {
						c.swap(fx)
					}
					var extra func() []any
					if c.load != nil {
						extra = c.load(t, fx, ref)
					}
					out := chainLoad(t, fx)
					if extra != nil {
						out = append(out, extra())
					}
					for _, e := range fx.hd.dmas {
						if ref && (c.name == "rxBatch.deliver" || c.name == "FastRx") && len(e.served) != stock {
							t.Fatalf("%d batches served, want the %d of the stock", len(e.served), stock)
						}
					}
					return out, fx.k.Stats()
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
				t.Logf("switches %d -> %d, spawns %d -> %d", ws.Switches, gs.Switches, ws.Spawns, gs.Spawns)
			})
		}
	}
}
