package mcnt

import (
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/sim"
)

// The process forms below are the references mcnt's charge chains are
// checked against: Send and Recv as they were when the socket charge and
// the copy each parked the process.

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
				c.l.sendCtl(p, KindProbe, c.stream)
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
		c.l.sendSequenced(p, h, data[off:off+n])
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

// TestSendRecvChainsMatchProcessForms streams between the host and a DIMM
// with sends larger than the credit window and empty ones, and receive
// buffers from empty to larger than a frame, while rivals contend for both
// nodes' cores and memory channels. Every completion time, busy time and
// byte count must match the process forms, the kernel must push and pop
// the same events, and the chains must take strictly fewer switches.
func TestSendRecvChainsMatchProcessForms(t *testing.T) {
	run := func(chain bool) ([]any, sim.KernelStats) {
		k, s, f := newFabric(t, 1)
		defer k.Shutdown()
		var ends []any
		sizes := []int{3000, 0, 300 << 10, 1, 20 << 10}
		total := 0
		for _, n := range sizes {
			total += n
		}
		k.Go("server", func(p *sim.Proc) {
			ln, _ := f.Listen(s.Mcns[0].Node, 7001)
			nc, err := ln.AcceptConn(p)
			if err != nil {
				t.Error(err)
				return
			}
			c := nc.(*Conn)
			bufs := []int{4096, 0, 64 << 10, 5}
			for got, i := 0, 0; got < total; i++ {
				buf := make([]byte, bufs[i%len(bufs)])
				var n int
				if chain {
					n, _ = c.Recv(p, buf)
				} else {
					n, _ = refRecv(c, p, buf)
				}
				got += n
				ends = append(ends, n, p.Now())
				if i%3 == 0 {
					p.Sleep(3 * sim.Microsecond)
				}
			}
		})
		k.Go("client", func(p *sim.Proc) {
			c, err := f.Dial(p, s.Host.Node, s.Mcns[0].IP, 7001)
			if err != nil {
				t.Error(err)
				return
			}
			for i, n := range sizes {
				data := make([]byte, n)
				if chain {
					c.Send(p, data)
				} else {
					refSend(c, p, data)
				}
				ends = append(ends, "sent", p.Now())
				p.Sleep(sim.Duration(i) * 500 * sim.Nanosecond)
			}
		})
		for _, c := range []*cpu.CPU{s.Host.CPU, s.Mcns[0].CPU} {
			k.Go("rival", func(p *sim.Proc) {
				for i := 0; i < 300; i++ {
					refExec(c, p, int64(700+i%5*350))
					p.Sleep(sim.Duration(i%3) * 250 * sim.Nanosecond)
				}
			})
		}
		k.RunFor(20 * sim.Millisecond)
		checkClean(t, f)
		out := []any{ends, s.Host.CPU.Busy.Busy, s.Mcns[0].CPU.Busy.Busy, s.Host.TotalDRAMBytes(), s.Mcns[0].TotalDRAMBytes()}
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
}
