package netstack

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/sim"
)

// The process forms below are the references TCP's charge chains are
// checked against: Send, Recv and emitData as they were when each charge
// parked the process on its own.

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
	c.s.chargeCopy(p, n)
	if !c.ifc.Dev.Features().HWChecksum && !c.s.ChecksumBypass && segLen > 0 {
		refExec(c.s.CPU, p, int64(segLen)/c.s.Costs.ChecksumBytesPerCycle+1)
	}
	c.sendPayload(p, frame, TCPAck|TCPPsh, seq, c.rcvNxt, tsoSeg)
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
// overflow the send buffer, fit it, or find nothing buffered yet.
func TestSendRecvChainsMatchProcessForms(t *testing.T) {
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
