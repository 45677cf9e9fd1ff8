package mcnt

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

// The process forms below are the references mcnt's charge chains are
// checked against: Dial, Send, Recv, Close and the control frames as they
// were when the socket charge, the copy, each frame's charge, the TX lock
// and each device transmit parked the process on its own.

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

// refCopy is the stack's copy charge on its own, one park.
func refCopy(c *Conn, p *sim.Proc, n int) {
	st := c.ep.n.Stack
	st.CopyStep(st.CPU.Seq(), n).Run(p)
}

// refTransmit is the device's process-form transmit of a frame the link
// keeps: the device copies it.
func refTransmit(l *linkEnd, p *sim.Proc, fr []byte) {
	l.adj.dev.(netstack.NetDev).Transmit(p, netstack.Frame{Data: fr})
}

// refSendSequenced is sendSequenced's process form: the frame charge, the
// TX lock, the stamp and the device's transmit, one park each.
func refSendSequenced(l *linkEnd, p *sim.Proc, h Header, payload []byte) {
	f := l.ep.f
	refExec(l.ep.n.CPU, p, f.Pr.TxFrameCycles)
	l.txLock.Acquire(p)
	h.Seq = uint32(l.nextSeq)
	seq := l.nextSeq
	l.nextSeq++
	h.Ack = uint32(l.expect - 1)
	if rc := l.ep.conns[h.Stream]; rc != nil {
		h.Credit = uint32(rc.consumedB)
		rc.lastGrant = rc.consumedB
	}
	fr := l.buildFrame(h, payload)
	wasEmpty := len(l.unacked) == 0
	l.unacked = append(l.unacked, sentFrame{seq: seq, stream: h.Stream, frame: fr})
	l.rxSinceCtl = 0
	if h.Kind == KindData {
		f.DataFrames++
		f.BytesSent += int64(len(payload))
	}
	refTransmit(l, p, fr)
	if l.ep.isHost && f.tap != nil && h.Kind == KindData {
		f.tap.Frame(p.Now(), netstack.TapTx, l.name, fr)
	}
	l.txLock.Release()
	if wasEmpty {
		l.retxSig.Notify()
	}
}

// refSendCtl is sendCtl's process form.
func refSendCtl(l *linkEnd, p *sim.Proc, kind uint8, stream uint32) {
	f := l.ep.f
	h := Header{Kind: kind, Stream: stream, Ack: uint32(l.expect - 1)}
	if rc := l.ep.conns[stream]; rc != nil {
		h.Credit = uint32(rc.consumedB)
		rc.lastGrant = rc.consumedB
	}
	refExec(l.ep.n.CPU, p, f.Pr.TxFrameCycles)
	l.txLock.Acquire(p)
	f.CtlFrames++
	l.rxSinceCtl = 0
	fr := l.buildFrame(h, nil)
	refTransmit(l, p, fr)
	l.ep.n.Stack.RecycleFrameBuf(fr)
	l.txLock.Release()
}

func refSend(c *Conn, p *sim.Proc, data []byte) error {
	st := c.ep.n.Stack
	refExec(st.CPU, p, st.Costs.SocketCycles)
	refCopy(c, p, len(data))
	w := uint64(c.ep.f.Pr.Window)
	for off := 0; off < len(data); {
		if c.closed {
			return fmt.Errorf("send on closed stream")
		}
		n := min(len(data)-off, MaxData)
		avail := int(w - (c.sentB - c.grantB))
		if avail <= 0 {
			if f := c.ep.f; f.OnCreditStall != nil {
				f.OnCreditStall(p.Now())
			}
			if !c.sendSig.WaitTimeout(p, c.ep.f.Pr.ProbeTimeout) {
				refSendCtl(c.l, p, KindProbe, c.stream)
				c.ep.f.Probes++
			}
			continue
		}
		n = min(n, avail)
		streamOff := c.sentB
		c.sentB += uint64(n)
		h := Header{Kind: KindData, Stream: c.stream, Off: uint32(streamOff)}
		if c.dialer {
			h.Flags = FlagFromDialer
		}
		refSendSequenced(c.l, p, h, data[off:off+n])
		off += n
	}
	return nil
}

func refRecv(c *Conn, p *sim.Proc, buf []byte) (int, bool) {
	st := c.ep.n.Stack
	refExec(st.CPU, p, st.Costs.SocketCycles)
	for c.rxbuf.Len() == 0 {
		if c.peerClosed || c.closed {
			return 0, false
		}
		c.rxSig.Wait(p)
	}
	n := c.rxbuf.CopyAt(buf, 0)
	c.rxbuf.Discard(n)
	refCopy(c, p, n)
	c.consumedB += uint64(n)
	if c.consumedB-c.lastGrant >= uint64(c.ep.f.Pr.Window)/2 {
		c.l.wantCtl(c.stream)
	}
	return n, true
}

func refClose(c *Conn, p *sim.Proc) {
	if c.closed {
		return
	}
	st := c.ep.n.Stack
	refExec(st.CPU, p, st.Costs.SocketCycles)
	c.closed = true
	h := Header{Kind: KindFin, Stream: c.stream}
	if c.dialer {
		h.Flags = FlagFromDialer
	}
	refSendSequenced(c.l, p, h, nil)
	c.rxSig.Notify()
	c.sendSig.Notify()
}

func refDial(f *Fabric, p *sim.Proc, from *node.Node, dst netstack.IP, port uint16) *Conn {
	ep := f.byNode[from]
	a := ep.adjByIP[dst]
	st := ep.n.Stack
	refExec(st.CPU, p, st.Costs.SocketCycles)
	l := ep.link(a.peerMAC)
	stream := f.nextStream
	f.nextStream++
	c := newConn(ep, l, stream, true, ep.ip, uint16(stream), dst, port)
	ep.conns[stream] = c
	f.pairs[stream] = &streamPair{dialer: c}
	f.streams = append(f.streams, stream)
	refSendSequenced(l, p, Header{Kind: KindSyn, Flags: FlagFromDialer, Stream: stream, Off: uint32(port)}, nil)
	return c
}

// A chainRun is one scenario's run, in the process forms or the chains.
type chainRun struct {
	t     *testing.T
	k     *sim.Kernel
	s     *cluster.McnServer
	f     *Fabric
	chain bool
	ends  []any
	eofs  int // Recvs that returned end of stream
}

func (r *chainRun) dial(p *sim.Proc, from *node.Node, dst netstack.IP, port uint16) *Conn {
	if r.chain {
		c, err := r.f.Dial(p, from, dst, port)
		if err != nil {
			r.t.Error(err)
		}
		return c
	}
	return refDial(r.f, p, from, dst, port)
}

func (r *chainRun) send(c *Conn, p *sim.Proc, data []byte) {
	var err error
	if r.chain {
		err = c.Send(p, data)
	} else {
		err = refSend(c, p, data)
	}
	r.ends = append(r.ends, "sent", len(data), err == nil, p.Now())
}

func (r *chainRun) recv(c *Conn, p *sim.Proc, buf []byte) (int, bool) {
	var n int
	var ok bool
	if r.chain {
		n, ok = c.Recv(p, buf)
	} else {
		n, ok = refRecv(c, p, buf)
	}
	r.ends = append(r.ends, "recv", n, ok, p.Now())
	if !ok {
		r.eofs++
	}
	return n, ok
}

func (r *chainRun) close(c *Conn, p *sim.Proc) {
	if r.chain {
		c.Close(p)
	} else {
		refClose(c, p)
	}
	r.ends = append(r.ends, "closed", p.Now())
}

// accept listens on port of n and returns the first stream dialed to it.
func (r *chainRun) accept(p *sim.Proc, n *node.Node, port uint16) *Conn {
	ln, err := r.f.Listen(n, port)
	if err != nil {
		r.t.Error(err)
		return nil
	}
	nc, err := ln.AcceptConn(p)
	if err != nil {
		r.t.Error(err)
		return nil
	}
	return nc.(*Conn)
}

// stream sends sizes from one node to another, sleeping a little between
// sends, while the receiver reads with buffers of the sizes in bufs.
func (r *chainRun) stream(from, to *node.Node, toIP netstack.IP, port uint16, sizes, bufs []int) {
	total := 0
	for _, n := range sizes {
		total += n
	}
	r.k.Go("server", func(p *sim.Proc) {
		c := r.accept(p, to, port)
		for got, i := 0, 0; got < total; i++ {
			n, _ := r.recv(c, p, make([]byte, bufs[i%len(bufs)]))
			got += n
			if i%3 == 0 {
				p.Sleep(3 * sim.Microsecond)
			}
		}
	})
	r.k.Go("client", func(p *sim.Proc) {
		c := r.dial(p, from, toIP, port)
		for i, n := range sizes {
			r.send(c, p, make([]byte, n))
			p.Sleep(sim.Duration(i) * 500 * sim.Nanosecond)
		}
	})
}

// rivals contend for the cores of the host and of every DIMM.
func (r *chainRun) rivals() {
	cpus := []*cpu.CPU{r.s.Host.CPU}
	for _, m := range r.s.Mcns {
		cpus = append(cpus, m.CPU)
	}
	for _, c := range cpus {
		r.k.Go("rival", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				refExec(c, p, int64(700+i%5*350))
				p.Sleep(sim.Duration(i%3) * 250 * sim.Nanosecond)
			}
		})
	}
}

// TestSendRecvChainsMatchProcessForms runs each scenario with the process
// forms and with the chains, while rivals contend for every node's cores.
// Every completion time, busy time and byte count
// must match, the kernel must push and pop the same events, and the
// chains must take strictly fewer switches.
func TestSendRecvChainsMatchProcessForms(t *testing.T) {
	for _, sc := range []struct {
		name   string
		level  core.OptLevel
		dimms  int
		eofs   int
		scenes func(r *chainRun)
	}{
		// Sends larger than the credit window and empty ones, receive
		// buffers from empty to larger than a frame, host to DIMM.
		{"host-to-dimm", core.MCN5, 1, 0, func(r *chainRun) {
			r.stream(r.s.Host.Node, r.s.Mcns[0].Node, r.s.Mcns[0].IP, 7001,
				[]int{3000, 0, 300 << 10, 1, 20 << 10}, []int{4096, 0, 64 << 10, 5})
		}},
		// Two streams one way and one back share the link's TX lock with
		// each other and with its control frames.
		{"streams-share-link", core.MCN5, 1, 0, func(r *chainRun) {
			h, m := r.s.Host, r.s.Mcns[0]
			for i := uint16(0); i < 2; i++ {
				r.stream(h.Node, m.Node, m.IP, 7030+i, []int{40 << 10, 700, 9000}, []int{3000, 16 << 10})
			}
			r.stream(m.Node, h.Node, h.HostMcnIP(), 7032, []int{20 << 10, 64, 5000}, []int{1500, 9000})
		}},
		// Every Recv blocks: the reader is in Recv long before the writer
		// dials, and the writer pauses between sends.
		{"recv-blocks-first", core.MCN5, 1, 0, func(r *chainRun) {
			m := r.s.Mcns[0]
			r.k.Go("server", func(p *sim.Proc) {
				c := r.accept(p, m.Node, 7002)
				for got := 0; got < 3*5000; {
					n, _ := r.recv(c, p, make([]byte, 8192))
					got += n
				}
			})
			r.k.Go("client", func(p *sim.Proc) {
				c := r.dial(p, r.s.Host.Node, m.IP, 7002)
				p.Sleep(40 * sim.Microsecond)
				for i := 0; i < 3; i++ {
					r.send(c, p, make([]byte, 5000))
					p.Sleep(30 * sim.Microsecond)
				}
			})
		}},
		// The peer's FIN ends a blocked Recv, both ways round.
		{"fin-during-recv", core.MCN5, 1, 2, func(r *chainRun) {
			m := r.s.Mcns[0]
			r.k.Go("server", func(p *sim.Proc) {
				c := r.accept(p, m.Node, 7003)
				for {
					if _, ok := r.recv(c, p, make([]byte, 4096)); !ok {
						break
					}
				}
				r.close(c, p)
			})
			r.k.Go("client", func(p *sim.Proc) {
				c := r.dial(p, r.s.Host.Node, m.IP, 7003)
				r.send(c, p, make([]byte, 700))
				p.Sleep(25 * sim.Microsecond)
				r.close(c, p)
				r.recv(c, p, make([]byte, 4096))
			})
		}},
		// DIMM to DIMM, relayed by the host's forwarding engine (F3).
		{"dimm-to-dimm", core.MCN5, 2, 0, func(r *chainRun) {
			r.stream(r.s.Mcns[0].Node, r.s.Mcns[1].Node, r.s.Mcns[1].IP, 7004,
				[]int{9000, 1, 80 << 10, 300}, []int{16 << 10, 3, 2048})
		}},
		// DIMMs to the host through the MCN-DMA batch handler, and
		// through the polled drain without MCN-DMA.
		{"dimm-to-host-dma", core.MCN5, 2, 0, func(r *chainRun) {
			for i, m := range r.s.Mcns {
				r.stream(m.Node, r.s.Host.Node, r.s.Host.HostMcnIP(), uint16(7010+i),
					[]int{12000, 5, 64 << 10}, []int{8192, 100, 32 << 10})
			}
		}},
		{"dimm-to-host-drain", core.MCN3, 2, 0, func(r *chainRun) {
			for i, m := range r.s.Mcns {
				r.stream(m.Node, r.s.Host.Node, r.s.Host.HostMcnIP(), uint16(7020+i),
					[]int{12000, 5, 64 << 10}, []int{8192, 100, 32 << 10})
			}
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			run := func(chain bool) ([]any, sim.KernelStats) {
				k := sim.NewKernel()
				defer k.Shutdown()
				s := cluster.NewMcnServer(k, sc.dimms, sc.level.Options())
				r := &chainRun{t: t, k: k, s: s, f: Attach(k, s.Host, DefaultParams()), chain: chain}
				sc.scenes(r)
				r.rivals()
				k.RunFor(20 * sim.Millisecond)
				checkClean(t, r.f)
				if r.eofs != sc.eofs {
					t.Fatalf("%d Recvs returned end of stream, want %d", r.eofs, sc.eofs)
				}
				out := []any{r.ends, s.Host.CPU.Busy.Busy, s.Host.TotalDRAMBytes(), r.f.String()}
				for _, m := range s.Mcns {
					out = append(out, m.CPU.Busy.Busy, m.TotalDRAMBytes())
				}
				return out, k.Stats()
			}
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
			t.Logf("switches %d -> %d", ws.Switches, gs.Switches)
		})
	}
}
