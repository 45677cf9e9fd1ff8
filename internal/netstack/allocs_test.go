package netstack

import (
	"runtime"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Allocation ceilings for the frame hot path. The frame pool and the
// streaming TCP checksum are what keep the per-segment cost flat; these
// ceilings run under `make check` so a regression shows up as a test
// failure rather than a silent events/sec loss.

func TestAllocsFramePool(t *testing.T) {
	s := &Stack{pool: new(framePool)}
	for _, n := range []int{64, 1500, 9000, 64 << 10} {
		n := n
		cycle := func() {
			b := s.GetFrameBuf(n)
			s.RecycleFrameBuf(b)
		}
		cycle() // warm the size class
		if avg := testing.AllocsPerRun(256, cycle); avg != 0 {
			t.Fatalf("frame pool roundtrip for %d bytes allocates %.2f objects, want 0", n, avg)
		}
	}
}

func TestAllocsTCPChecksum(t *testing.T) {
	src, dst := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
	seg := make([]byte, TCPHeaderBytes+1448)
	for i := range seg {
		seg[i] = byte(i * 7)
	}
	PutTCP(seg, TCPHeader{SrcPort: 5001, DstPort: 80, Seq: 9, Ack: 4, Flags: TCPAck, Window: 65535}, src, dst, seg[TCPHeaderBytes:])
	if !VerifyTCPChecksum(seg, src, dst) {
		t.Fatal("checksum self-test failed")
	}
	gen := func() {
		tcpChecksum(seg[:TCPHeaderBytes], src, dst, seg[TCPHeaderBytes:])
	}
	if avg := testing.AllocsPerRun(256, gen); avg != 0 {
		t.Fatalf("tcpChecksum allocates %.2f objects per segment, want 0", avg)
	}
	verify := func() {
		VerifyTCPChecksum(seg, src, dst)
	}
	if avg := testing.AllocsPerRun(256, verify); avg != 0 {
		t.Fatalf("VerifyTCPChecksum allocates %.2f objects per segment, want 0", avg)
	}
}

// TestAllocsUDPLoopback bounds the per-datagram allocation count for a
// full stack traversal (UDP send -> IP -> loopback -> IP -> UDP recv).
// The loopback frame comes from the pool and is recycled after delivery;
// the remaining allocations are the datagram copy, queue node, and proc
// bookkeeping. The ceiling has headroom but catches per-frame leaks.
func TestAllocsUDPLoopback(t *testing.T) {
	p := newPair(t, 1500, false)
	lo := IPv4(127, 0, 0, 1)
	srv, err := p.a.UDPBind(7000)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := p.a.UDPBind(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512)
	roundtrip := func() {
		p.k.Go("tx", func(pr *sim.Proc) {
			cli.SendTo(pr, lo, 7000, payload)
		})
		p.k.Go("rx", func(pr *sim.Proc) {
			srv.RecvTimeout(pr, sim.Second)
		})
		p.k.RunUntil(p.k.Now().Add(10 * sim.Millisecond))
	}
	for i := 0; i < 64; i++ {
		roundtrip() // warm pools (frame classes, shells, event arena)
	}
	avg := testing.AllocsPerRun(128, roundtrip)
	t.Logf("allocs per UDP roundtrip: %.1f", avg)
	const ceiling = 16
	if avg > ceiling {
		t.Fatalf("UDP loopback roundtrip allocates %.1f objects, ceiling %d", avg, ceiling)
	}
}

// TestAllocsTCPBulk bounds a warmed loopback connection's 64KB Send+Recv
// round, in objects and in bytes. The socket buffers are byte rings that
// reuse their space, so once warmed a round allocates only per-packet
// bookkeeping (loopback delivery procs and their closures: 20 objects,
// under 1KB), never a copy of the buffered bytes (sliding append
// buffers cost about 130KB per round).
func TestAllocsTCPBulk(t *testing.T) {
	k := sim.NewKernel()
	s := NewStack(k, cpu.New(k, "h", 2, sim.GHz(3), cpu.DefaultOSCosts()), "h", DefaultProtoCosts())
	var cli, srv *TCPConn
	k.Go("server", func(p *sim.Proc) {
		l, _ := s.Listen(80)
		srv, _ = l.Accept(p)
	})
	k.Go("client", func(p *sim.Proc) {
		cli, _ = s.Connect(p, Loopback, 80)
	})
	k.RunUntil(k.Now().Add(sim.Millisecond))
	payload := make([]byte, 64<<10)
	buf := make([]byte, 64<<10)
	round := func() {
		k.Go("tx", func(p *sim.Proc) { cli.Send(p, payload) })
		k.Go("rx", func(p *sim.Proc) {
			for got := 0; got < len(payload); {
				n, _ := srv.Recv(p, buf)
				got += n
			}
		})
		k.RunUntil(k.Now().Add(sim.Millisecond))
	}
	for i := 0; i < 64; i++ {
		round()
	}
	avg := testing.AllocsPerRun(128, round)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 128; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / 128
	t.Logf("per 64KB TCP round: %.1f allocs, %d bytes", avg, perRound)
	const ceiling, byteCeiling = 28, 8 << 10
	if avg > ceiling || perRound > byteCeiling {
		t.Fatalf("64KB TCP Send+Recv round allocates %.1f objects (ceiling %d), %d bytes (ceiling %d)",
			avg, ceiling, perRound, byteCeiling)
	}
	k.Shutdown()
}

// sinkDev is a test wire's identity with a transmit path that swallows
// every frame, recycling it into s's pool.
type sinkDev struct {
	*wireDev
	s *Stack
}

func (d sinkDev) Transmit(_ *sim.Proc, f Frame) {
	if f.Pooled {
		d.s.RecycleFrameBuf(f.Data)
	}
}

func (d sinkDev) TransmitSteps(q *cpu.Seq) { d.s.RecycleFrameBuf(q.Buf) }

// sinkConn returns a pair and the server end of a connection from a to b
// whose ACKs b's device swallows, so a test hands b's stack segments
// itself (deliverSeg).
func sinkConn(t *testing.T) (*pair, *TCPConn) {
	t.Helper()
	pr := newPair(t, 9000, false)
	var srv *TCPConn
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(80)
		srv, _ = l.Accept(p)
	})
	pr.k.Go("client", func(p *sim.Proc) { pr.a.Connect(p, IPv4(10, 0, 0, 2), 80) })
	pr.k.RunUntil(pr.k.Now().Add(sim.Millisecond))
	if srv == nil {
		pr.k.Shutdown()
		t.Fatal("no connection")
	}
	pr.b.Ifaces()[0].Dev = sinkDev{pr.bd, pr.b}
	return pr, srv
}

// deliverSeg hands srv's stack a pooled frame with n payload bytes at
// seq, byte i of them byte(seq+i), and returns the frame.
func deliverSeg(p *sim.Proc, pr *pair, srv *TCPConn, seq uint32, n int) []byte {
	frame := pr.b.GetFrameBuf(EthHeaderBytes + IPv4HeaderBytes + TCPHeaderBytes + n)
	PutEth(frame, EthHeader{Dst: pr.bd.mac, Src: pr.ad.mac, Type: EtherTypeIPv4})
	PutIPv4(frame[EthHeaderBytes:], IPv4Header{
		TotalLen: uint16(len(frame) - EthHeaderBytes), DF: true, TTL: 64,
		Proto: ProtoTCP, Src: srv.tuple.rip, Dst: srv.tuple.lip,
	})
	payload := frame[EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes:]
	for i := range payload {
		payload[i] = byte(seq) + byte(i)
	}
	PutTCP(frame[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{
		SrcPort: srv.tuple.rport, DstPort: srv.tuple.lport, Seq: seq,
		Ack: srv.sndNxt, Flags: TCPAck | TCPPsh, Window: srv.rwnd,
	}, srv.tuple.rip, srv.tuple.lip, payload)
	pr.b.RxFrame(p, pr.bd, Frame{Data: frame, Pooled: true})
	return frame
}

// TestAllocsTCPDataSegment: a warm in-order data segment, handed to the
// stack in a pooled frame and read by the application, allocates
// nothing. The receive queue keeps the frame and recycles it once Recv
// has consumed it; the delayed ACK every second segment goes to a device
// that recycles it.
func TestAllocsTCPDataSegment(t *testing.T) {
	pr, srv := sinkConn(t)
	defer pr.k.Shutdown()
	const n = 8000
	buf := make([]byte, n)
	pr.k.Go("deliver", func(p *sim.Proc) {
		for {
			p.Sleep(10 * sim.Microsecond)
			deliverSeg(p, pr, srv, srv.rcvNxt, n)
			if got, _ := srv.Recv(p, buf); got != n {
				t.Errorf("read %d bytes, want %d", got, n)
			}
		}
	})
	round := func() { pr.k.RunUntil(pr.k.Now().Add(20 * sim.Microsecond)) }
	for i := 0; i < 64; i++ {
		round() // warm the pool, the queue and the chains
	}
	segs := srv.SegsRcvd
	avg := testing.AllocsPerRun(128, round)
	if srv.SegsRcvd-segs < 128 {
		t.Fatalf("only %d segments in 129 rounds", srv.SegsRcvd-segs)
	}
	if avg != 0 {
		t.Fatalf("a warm in-order data segment delivered and read allocates %.2f objects, want 0", avg)
	}
}

// RecvTimeout is Recv with a deadline.
func (u *UDPSocket) RecvTimeout(p *sim.Proc, d sim.Duration) (Datagram, bool) {
	u.s.CPU.Exec(p, u.s.Costs.SocketCycles)
	dg, ok, _ := u.rx.GetTimeout(p, d)
	return dg, ok
}
