package netstack

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/sim"
)

// The process forms below are the references TCP's and IP's charge
// chains are checked against: Send, Recv, emitData, sendSegment,
// sendFrame and deliverIP as they were when each charge parked the
// process on its own.

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

func refSend(c *TCPConn, p *sim.Proc, data []byte) error {
	refExec(c.s.CPU, p, c.s.Costs.SocketCycles)
	for len(data) > 0 {
		if c.closed || c.finQueued {
			return fmt.Errorf("send on closed connection")
		}
		space := tcpSndBufCap - c.sndBuf.Len()
		if space == 0 {
			c.writable.Wait(p)
			continue
		}
		n := min(len(data), space)
		c.s.chargeCopy(p, n)
		c.sndBuf.Write(data[:n])
		data = data[n:]
		c.sendable.Notify()
	}
	return nil
}

func refRecv(c *TCPConn, p *sim.Proc, buf []byte) (int, bool) {
	refExec(c.s.CPU, p, c.s.Costs.SocketCycles)
	for c.rcvBuf.Len() == 0 {
		if c.gotFin || c.closed {
			return 0, false
		}
		c.readable.Wait(p)
	}
	n := c.rcvBuf.CopyAt(buf, 0)
	c.s.chargeCopy(p, n)
	c.rcvBuf.Discard(n)
	if !c.closed && c.state != tcpClosed {
		newWnd := uint32(tcpRcvBufCap - c.rcvBuf.Len())
		if c.lastAdvWnd < uint32(2*c.mss) && newWnd >= uint32(4*c.mss) {
			c.sendAck(p)
		}
	}
	return n, true
}

func refEmitData(c *TCPConn, p *sim.Proc, seq uint32, frame []byte, tsoSeg int) {
	segLen := len(frame) - frameHeadroom
	n := segLen - TCPHeaderBytes
	refExec(c.s.CPU, p, c.s.Costs.TCPTxCycles)
	if n > 0 {
		c.s.chargeCopy(p, n)
	}
	if !c.ifc.Dev.Features().HWChecksum && !c.s.ChecksumBypass && segLen > 0 {
		refExec(c.s.CPU, p, int64(segLen)/c.s.Costs.ChecksumBytesPerCycle+1)
	}
	refSendPayload(c, p, frame, TCPAck|TCPPsh, seq, c.rcvNxt, tsoSeg)
	c.BytesSent.Add(p.Now(), int64(n))
	if !c.rto.Pending() {
		c.rto.Reset(c.currentRTO())
	}
	if !c.rtActive {
		c.rtActive = true
		c.rtSeq = seq + uint32(n)
		c.rtStart = p.Now()
	}
	c.ackCarried()
}

func refSendSegment(c *TCPConn, p *sim.Proc, flags uint8, seq, ack uint32) {
	refExec(c.s.CPU, p, c.s.Costs.TCPTxCycles/2)
	if !c.ifc.Dev.Features().HWChecksum {
		c.s.chargeChecksum(p, TCPHeaderBytes)
	}
	refSendPayload(c, p, c.s.getTxFrame(TCPHeaderBytes), flags, seq, ack, 0)
}

func refSendPayload(c *TCPConn, p *sim.Proc, frame []byte, flags uint8, seq, ack uint32, tsoSeg int) {
	seg := frame[frameHeadroom:]
	wnd := uint32(tcpRcvBufCap - c.rcvBuf.Len())
	c.lastAdvWnd = wnd
	PutTCP(seg, TCPHeader{
		SrcPort: c.tuple.lport, DstPort: c.tuple.rport,
		Seq: seq, Ack: ack, Flags: flags, Window: wnd,
	}, c.tuple.lip, c.tuple.rip, seg[TCPHeaderBytes:])
	_ = refSendFrame(c.s, p, ProtoTCP, c.tuple.lip, c.tuple.rip, frame, tsoSeg)
}

func refSendFrame(s *Stack, p *sim.Proc, proto uint8, src, dst IP, frame []byte, tsoSeg int) error {
	payload := frame[frameHeadroom:]
	if s.isLocal(dst) {
		refExec(s.CPU, p, s.Costs.IPTxCycles)
		pkt := frame[EthHeaderBytes:]
		s.ipID++
		PutIPv4(pkt, IPv4Header{TotalLen: uint16(len(pkt)), ID: s.ipID, TTL: 64, Proto: proto, Src: src, Dst: dst})
		s.IPTx.Add(s.K.Now(), int64(len(pkt)))
		if s.Tap != nil {
			PutEth(frame, EthHeader{Type: EtherTypeIPv4})
			s.Tap.Frame(s.K.Now(), TapLoop, "lo", frame)
		}
		s.K.Go(s.Host+"/lo-rx", func(rp *sim.Proc) {
			refDeliverIP(s, rp, pkt)
			s.RecycleFrameBuf(frame)
		})
		return nil
	}
	ifc, err := s.route(dst)
	if err != nil {
		s.RecycleFrameBuf(frame)
		return err
	}
	if src.IsZero() {
		src = ifc.IP
	}
	dstMAC, err := ifc.ResolveMAC(p, dst)
	if err != nil {
		s.RecycleFrameBuf(frame)
		return err
	}
	refExec(s.CPU, p, s.Costs.IPTxCycles)
	s.chargeChecksum(p, IPv4HeaderBytes)
	s.ipID++
	if tsoSeg == 0 && IPv4HeaderBytes+len(payload) > ifc.Dev.MTU() {
		s.sendFragmented(p, proto, src, dst, payload, ifc, dstMAC, s.ipID)
		s.RecycleFrameBuf(frame)
		return nil
	}
	PutEth(frame, EthHeader{Dst: dstMAC, Src: ifc.Dev.MAC(), Type: EtherTypeIPv4})
	PutIPv4(frame[EthHeaderBytes:], IPv4Header{
		TotalLen: uint16(IPv4HeaderBytes + len(payload)),
		ID:       s.ipID, TTL: 64, Proto: proto, Src: src, Dst: dst,
		DF: proto == ProtoTCP,
	})
	s.IPTx.Add(s.K.Now(), int64(len(frame)))
	if s.Tap != nil {
		s.Tap.Frame(s.K.Now(), TapTx, ifc.Dev.Name(), frame)
	}
	ifc.Dev.Transmit(p, Frame{Data: frame, TSOSegSize: tsoSeg, Pooled: true})
	return nil
}

func refDeliverIP(s *Stack, p *sim.Proc, pkt []byte) {
	hdr, ok := ParseIPv4(pkt)
	if !ok || int(hdr.TotalLen) > len(pkt) {
		s.Drops++
		return
	}
	pkt = pkt[:hdr.TotalLen]
	refExec(s.CPU, p, s.Costs.IPRxCycles)
	s.chargeChecksum(p, IPv4HeaderBytes)
	if !VerifyIPv4Checksum(pkt) || !s.isLocal(hdr.Dst) {
		s.Drops++
		return
	}
	s.IPRx.Add(s.K.Now(), int64(len(pkt)))
	body := pkt[IPv4HeaderBytes:]
	if hdr.MF || hdr.FragOff > 0 {
		if body = s.reassemble(hdr, body); body == nil {
			return
		}
	}
	switch hdr.Proto {
	case ProtoICMP:
		s.rxICMP(p, hdr, body)
	case ProtoTCP:
		th, ok := ParseTCP(body)
		if !ok || (!s.ChecksumBypass && !VerifyTCPChecksum(body, hdr.Src, hdr.Dst)) {
			s.Drops++
			return
		}
		if c, ok := s.conns[rxTuple(hdr, th)]; ok {
			if !c.ifc.Dev.Features().HWChecksum {
				s.chargeChecksum(p, len(body))
			}
			c.rxLock.Acquire(p)
			refExec(s.CPU, p, s.Costs.TCPRxCycles)
			c.segArrives(p, th, body[TCPHeaderBytes:], nil)
			return
		}
		s.rxTCPNoConn(p, hdr, th)
	case ProtoUDP:
		s.rxUDP(p, hdr, body)
	default:
		s.Drops++
	}
}

// chainPair connects a to b over the test wire and starts rivals that
// contend for both stacks' cores. Each Send, Recv and emitData call is
// made by fn's processes.
func chainPair(t *testing.T, fn func(p *pair, cli, srv *TCPConn)) ([]any, sim.KernelStats) {
	p := newPair(t, 1500, false)
	defer p.k.Shutdown()
	var cli, srv *TCPConn
	p.k.Go("server", func(pr *sim.Proc) {
		l, _ := p.b.Listen(80)
		srv, _ = l.Accept(pr)
	})
	p.k.Go("client", func(pr *sim.Proc) {
		cli, _ = p.a.Connect(pr, IPv4(10, 0, 0, 2), 80)
	})
	p.k.RunUntil(p.k.Now().Add(sim.Millisecond))
	if cli == nil || srv == nil {
		t.Fatal("no connection")
	}
	for _, s := range []*Stack{p.a, p.b} {
		c := s.CPU
		p.k.Go("rival", func(pr *sim.Proc) {
			for i := 0; i < 400; i++ {
				refExec(c, pr, int64(900+i%7*400))
				pr.Sleep(sim.Duration(i%3) * 200 * sim.Nanosecond)
			}
		})
	}
	fn(p, cli, srv)
	p.k.RunUntil(p.k.Now().Add(20 * sim.Millisecond))
	out := []any{p.a.CPU.Busy.Busy, p.b.CPU.Busy.Busy, cli.BytesSent.Total, srv.BytesRcvd.Total, cli.sndUna, srv.rcvNxt}
	return out, p.k.Stats()
}

// diffTCPChain runs a scenario with the process forms and with the
// chains. Every completion time, busy time and byte count must match, the
// kernel must push and pop the same events, and the chains must take
// strictly fewer switches.
func diffTCPChain(t *testing.T, run func(chain bool) ([]any, sim.KernelStats)) {
	t.Helper()
	want, ws := run(false)
	got, gs := run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chain diverges from the process form:\n got %v\nwant %v", got, want)
	}
	if gs.Pushes != ws.Pushes || gs.Pops != ws.Pops {
		t.Fatalf("chain pushed/popped %d/%d events, process form %d/%d", gs.Pushes, gs.Pops, ws.Pushes, ws.Pops)
	}
	if gs.Switches >= ws.Switches {
		t.Fatalf("chain took %d switches, process form %d: want fewer", gs.Switches, ws.Switches)
	}
}

// TestSendRecvChainsMatchProcessForms: Send and Recv, with sizes that
// overflow the send buffer, fit it, or find nothing buffered yet; then
// Recvs that block before any data arrives, and one that the peer's FIN
// ends while it waits.
func TestSendRecvChainsMatchProcessForms(t *testing.T) {
	t.Run("stream", testSendRecvStream)
	t.Run("blocking-recv-and-fin", func(t *testing.T) {
		diffTCPChain(t, func(chain bool) ([]any, sim.KernelStats) {
			var ends []any
			out, st := chainPair(t, func(p *pair, cli, srv *TCPConn) {
				p.k.Go("receiver", func(pr *sim.Proc) {
					buf := make([]byte, 2048)
					for {
						var n int
						var ok bool
						if chain {
							n, ok = srv.Recv(pr, buf)
						} else {
							n, ok = refRecv(srv, pr, buf)
						}
						ends = append(ends, n, ok, pr.Now())
						if !ok {
							return
						}
					}
				})

				p.k.Go("sender", func(pr *sim.Proc) {
					pr.Sleep(30 * sim.Microsecond)
					cli.Send(pr, make([]byte, 5000))
					pr.Sleep(40 * sim.Microsecond)
					cli.Send(pr, make([]byte, 100))
					pr.Sleep(50 * sim.Microsecond)
					cli.Close(pr)
					ends = append(ends, "closed", pr.Now())
				})
			})
			if n := len(ends); n < 3 || ends[n-2] != false {
				t.Fatalf("the FIN did not end the blocked Recv: %v", ends)
			}
			return append(out, ends), st
		})
	})
}

func testSendRecvStream(t *testing.T) {
	sizes := []int{3000, 1200 << 10, 1, 9000, 0, 64 << 10}
	diffTCPChain(t, func(chain bool) ([]any, sim.KernelStats) {
		var ends []any
		out, st := chainPair(t, func(p *pair, cli, srv *TCPConn) {
			total := 0
			for _, n := range sizes {
				total += n
			}
			p.k.Go("sender", func(pr *sim.Proc) {
				for i, n := range sizes {
					data := make([]byte, n)
					if chain {
						cli.Send(pr, data)
					} else {
						refSend(cli, pr, data)
					}
					ends = append(ends, "sent", pr.Now())
					pr.Sleep(sim.Duration(i) * 700 * sim.Nanosecond)
				}
			})
			p.k.Go("receiver", func(pr *sim.Proc) {
				bufs := []int{1 << 10, 0, 40 << 10, 7}
				for got, i := 0, 0; got < total; i++ {
					buf := make([]byte, bufs[i%len(bufs)])
					var n int
					if chain {
						n, _ = srv.Recv(pr, buf)
					} else {
						n, _ = refRecv(srv, pr, buf)
					}
					got += n
					ends = append(ends, n, pr.Now())
					if i%3 == 0 {
						pr.Sleep(2 * sim.Microsecond)
					}
				}
			})
		})
		return append(out, ends), st
	})
}

// TestEmitDataChainMatchesProcessForm emits data segments straight from a
// test process, with the bookkeeping trySend does around emitData, with
// and without a software checksum.
func TestEmitDataChainMatchesProcessForm(t *testing.T) {
	for _, bypass := range []bool{false, true} {
		t.Run(fmt.Sprint("bypass=", bypass), func(t *testing.T) {
			diffTCPChain(t, func(chain bool) ([]any, sim.KernelStats) {
				var ends []any
				out, st := chainPair(t, func(p *pair, cli, srv *TCPConn) {
					p.a.ChecksumBypass = bypass
					p.k.Go("emitter", func(pr *sim.Proc) {
						for i, n := range []int{1448, 600, 1, 1448, 1000} {
							// The chunk enters the send buffer and leaves it
							// without a park in between, so the connection's
							// own transmitter never finds it unsent.
							cli.sndBuf.Write(make([]byte, n))
							frame := cli.stageData(int(cli.sndNxt-cli.sndUna), n)
							seq := cli.sndNxt
							cli.sndNxt += uint32(n)
							cli.sndMax = cli.sndNxt
							if chain {
								cli.emitData(pr, seq, frame, 0)
							} else {
								refEmitData(cli, pr, seq, frame, 0)
							}
							ends = append(ends, pr.Now())
							pr.Sleep(sim.Duration(i) * 300 * sim.Nanosecond)
						}
					})
					p.k.Go("sink", func(pr *sim.Proc) { ends = append(ends, srv.RecvN(pr, 5497), pr.Now()) })
				})
				return append(out, ends), st
			})
		})
	}
}

// TestAllocsChainedSocketCall: once pools are warm, a Send whose socket
// charge and copy run as one chain allocates nothing, and neither does a
// Recv that finds its bytes buffered. The peer's receive buffer is full,
// so a Send only fills the send buffer and a Recv sends no window update:
// the cycle is the two calls and nothing else.
func TestAllocsChainedSocketCall(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	s := NewStack(k, cpu.New(k, "h", 2, sim.GHz(3), cpu.DefaultOSCosts()), "h", DefaultProtoCosts())
	var cli, srv *TCPConn
	k.Go("server", func(p *sim.Proc) {
		l, _ := s.Listen(80)
		srv, _ = l.Accept(p)
	})
	k.Go("client", func(p *sim.Proc) {
		cli, _ = s.Connect(p, Loopback, 80)
		cli.SendN(p, tcpRcvBufCap) // fill the server's receive buffer
	})
	k.RunUntil(k.Now().Add(20 * sim.Millisecond))
	if cli.rwnd != 0 || srv.rcvBuf.Len() < tcpRcvBufCap/2 {
		t.Fatalf("setup: peer window %d, server holds %d bytes", cli.rwnd, srv.rcvBuf.Len())
	}
	msg, buf := make([]byte, 64), make([]byte, 64)
	k.Go("caller", func(p *sim.Proc) {
		for {
			cli.Send(p, msg)
			srv.Recv(p, buf)
			p.Sleep(sim.Microsecond)
		}
	})
	cycle := func() { k.RunUntil(k.Now().Add(2 * sim.Microsecond)) }
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(64, cycle); avg != 0 {
		t.Fatalf("a chained Send and Recv allocate %.2f objects per cycle, want 0", avg)
	}
}

// stepDev is the test wire with a driver in front: a transmit charges
// setup cycles on the sending stack's CPU, then the wire serializes the
// frame behind the ones before it, with no process sleeping through it.
// Its Transmit is the process form of its steps.
type stepDev struct {
	*wireDev
	c    *cpu.CPU
	free sim.Time       // when the wire finishes its last frame
	put  func(*cpu.Seq) // onPut, bound once
}

func newStepDev(d *wireDev, c *cpu.CPU) *stepDev {
	sd := &stepDev{wireDev: d, c: c}
	sd.put = sd.onPut
	return sd
}

const stepDevSetupCycles = 700

func (d *stepDev) Transmit(p *sim.Proc, f Frame) {
	refExec(d.c, p, stepDevSetupCycles)
	d.wire(f.Data)
}

func (d *stepDev) TransmitSteps(q *cpu.Seq) { q.Exec(stepDevSetupCycles).Hook(d.put) }

func (d *stepDev) onPut(q *cpu.Seq) { d.wire(q.Buf) }

func (d *stepDev) wire(fr []byte) {
	d.free = max(d.free, d.k.Now()).Add(sim.AtRate(int64(len(fr)), d.rate))
	d.k.At(d.free.Add(d.latency), func() {
		d.k.Go(d.name+"/rx", func(rp *sim.Proc) { d.peer.RxFrame(rp, d.peer.Ifaces()[0].Dev, Frame{Data: fr}) })
	})
}

// udpFrame is a sendFrame frame holding a UDP datagram of n zero bytes.
func udpFrame(s *Stack, port uint16, n int) []byte {
	frame := s.getTxFrame(UDPHeaderBytes + n)
	PutUDP(frame[frameHeadroom:], UDPHeader{SrcPort: port, DstPort: port, Len: uint16(UDPHeaderBytes + n)})
	clear(frame[frameHeadroom+UDPHeaderBytes:])
	return frame
}

// tcpPacket is a frame whose IP packet carries a segment of n bytes at
// seq from c's peer to c; bad corrupts its checksum.
func tcpPacket(c *TCPConn, flags uint8, seq uint32, n int, bad bool) []byte {
	frame := make([]byte, EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes+n)
	pkt := frame[EthHeaderBytes:]
	PutTCP(pkt[IPv4HeaderBytes:], TCPHeader{
		SrcPort: c.tuple.rport, DstPort: c.tuple.lport,
		Seq: seq, Ack: c.sndNxt, Flags: flags, Window: tcpRcvBufCap,
	}, c.tuple.rip, c.tuple.lip, pkt[IPv4HeaderBytes+TCPHeaderBytes:])
	if bad {
		pkt[len(pkt)-1] ^= 0xff
	}
	PutIPv4(pkt, IPv4Header{TotalLen: uint16(len(pkt)), TTL: 64, Proto: ProtoTCP, Src: c.tuple.rip, Dst: c.tuple.lip})
	return frame
}

// frameLoad runs sendFrame, sendSegment and deliverIP calls from test
// processes, as chains or in their process forms, over step devices:
// UDP datagrams from a to b (one fragments) and over a's loopback from
// two senders, pure ACKs from the client, and TCP segments for the
// server's connection delivered by two processes that contend for its
// socket lock, with a corrupt one and a SYN nobody listens for, while
// rivals contend for both stacks' cores. resolved keeps a's neighbour
// table; otherwise a's first datagram to b resolves it with ARP while
// the other sender waits on it.
func frameLoad(t *testing.T, resolved, hw, chain bool) ([]any, sim.KernelStats) {
	p := newPair(t, 1500, false)
	defer p.k.Shutdown()
	ipa, ipb := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
	for _, side := range []struct {
		s *Stack
		d *wireDev
	}{{p.a, p.ad}, {p.b, p.bd}} {
		side.d.feats.HWChecksum = hw
		side.s.Ifaces()[0].Dev = newStepDev(side.d, side.s.CPU)
	}
	var cli, srv *TCPConn
	p.k.Go("server", func(pr *sim.Proc) {
		l, _ := p.b.Listen(80)
		srv, _ = l.Accept(pr)
	})
	p.k.Go("client", func(pr *sim.Proc) { cli, _ = p.a.Connect(pr, ipb, 80) })
	p.k.RunUntil(p.k.Now().Add(sim.Millisecond))
	if cli == nil || srv == nil {
		t.Fatal("no connection")
	}
	if !resolved {
		delete(p.a.Ifaces()[0].Neighbors, ipb)
	}
	var ends []any
	for _, s := range []*Stack{p.a, p.b} {
		u, _ := s.UDPBind(7)
		p.k.Go("udp-sink", func(pr *sim.Proc) {
			for {
				d, ok := u.Recv(pr)
				if !ok {
					return
				}
				ends = append(ends, s.Host, len(d.Data), pr.Now())
			}
		})
		c := s.CPU
		p.k.Go("rival", func(pr *sim.Proc) {
			for i := 0; i < 60; i++ {
				refExec(c, pr, int64(900+i%7*400))
				pr.Sleep(sim.Duration(i%3) * 200 * sim.Nanosecond)
			}
		})
	}
	send := func(pr *sim.Proc, dst IP, n int) {
		frame := udpFrame(p.a, 7, n)
		var err error
		if chain {
			err = p.a.sendFrame(pr, ProtoUDP, IP{}, dst, frame, 0)
		} else {
			err = refSendFrame(p.a, pr, ProtoUDP, IP{}, dst, frame, 0)
		}
		ends = append(ends, "sent", n, err == nil, pr.Now())
	}
	for w, dsts := range [][]IP{{ipb, ipb, ipa, ipb}, {ipb, ipa, ipa, ipb}} {
		p.k.Go("sender", func(pr *sim.Proc) {
			for i, n := range []int{100, 4000, 60, 1400} {
				send(pr, dsts[i], n+w)
				pr.Sleep(sim.Duration(i*w) * 300 * sim.Nanosecond)
			}
		})
	}
	p.k.Go("acker", func(pr *sim.Proc) {
		for i := 0; i < 4; i++ {
			if chain {
				cli.sendSegment(pr, TCPAck, cli.sndNxt, cli.rcvNxt)
			} else {
				refSendSegment(cli, pr, TCPAck, cli.sndNxt, cli.rcvNxt)
			}
			ends = append(ends, "ack", pr.Now())
			pr.Sleep(sim.Duration(i) * 400 * sim.Nanosecond)
		}
	})
	base := srv.rcvNxt
	deliver := func(pr *sim.Proc, frame []byte) {
		if chain {
			p.b.deliverIP(pr, Frame{Data: frame})
		} else {
			refDeliverIP(p.b, pr, frame[EthHeaderBytes:])
		}
		ends = append(ends, "in", pr.Now())
	}
	for w := 0; w < 2; w++ {
		p.k.Go("deliverer", func(pr *sim.Proc) {
			for k := w; k < 8; k += 2 {
				deliver(pr, tcpPacket(srv, TCPAck, base+uint32(k*500), 500, false))
				pr.Sleep(sim.Duration(k%3) * 250 * sim.Nanosecond)
			}
			if w == 1 {
				deliver(pr, tcpPacket(srv, TCPAck, base+4000, 500, true))
				syn := tcpPacket(srv, TCPSyn, 99, 0, false)
				PutTCP(syn[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{SrcPort: srv.tuple.rport, DstPort: 81, Seq: 99, Flags: TCPSyn},
					srv.tuple.rip, srv.tuple.lip, nil)
				deliver(pr, syn) // to port 81: refused
			}
		})
	}
	p.k.RunUntil(p.k.Now().Add(10 * sim.Millisecond))
	out := []any{ends, p.a.CPU.Busy.Busy, p.b.CPU.Busy.Busy, p.a.IPTx.Total, p.a.IPRx.Total, p.b.IPTx.Total, p.b.IPRx.Total,
		p.a.Drops, p.b.Drops, p.a.ARPRequests, srv.BytesRcvd.Total, srv.rcvNxt - base, srv.SegsRcvd, cli.AcksSent}
	return out, p.k.Stats()
}

// TestFrameChainsMatchProcessForms: sendFrame, sendSegment and deliverIP
// as chains match their process forms, with the next hop resolved or
// not, and with checksums in software or in the device.
func TestFrameChainsMatchProcessForms(t *testing.T) {
	for _, resolved := range []bool{true, false} {
		for _, hw := range []bool{false, true} {
			t.Run(fmt.Sprintf("resolved=%v/hw=%v", resolved, hw), func(t *testing.T) {
				diffTCPChain(t, func(chain bool) ([]any, sim.KernelStats) { return frameLoad(t, resolved, hw, chain) })
			})
		}
	}
}
