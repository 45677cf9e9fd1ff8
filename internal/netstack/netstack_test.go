package netstack

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/sim"
)

// wireDev is a zero-queue test device: frames cross to the peer stack after
// a fixed latency plus serialization at a fixed rate. dropEvery>0 drops
// every Nth data-bearing frame to exercise retransmission.
type wireDev struct {
	k         *sim.Kernel
	name      string
	mac       MAC
	mtu       int
	feats     Features
	peer      *Stack
	peerDev   *wireDev
	latency   sim.Duration
	rate      float64 // bytes/sec
	dropEvery int
	dropNext  int // one-shot: silently drop the next N frames
	dropAt    int // one-shot: drop exactly the frame with this count
	count     int
	// jitterFn, when set, supplies the per-frame latency (reordering).
	jitterFn func() sim.Duration
}

func (d *wireDev) Name() string       { return d.name }
func (d *wireDev) MAC() MAC           { return d.mac }
func (d *wireDev) MTU() int           { return d.mtu }
func (d *wireDev) Features() Features { return d.feats }

func (d *wireDev) Transmit(p *sim.Proc, f Frame) {
	for _, fr := range d.segments(f.Data, f.TSOSegSize) {
		if d.drop() {
			continue
		}
		p.Sleep(sim.AtRate(int64(len(fr)), d.rate))
		d.deliver(fr)
	}
}

// TransmitSteps is Transmit as steps of the sender's chain: each frame's
// serialization is a wait with no core held.
func (d *wireDev) TransmitSteps(q *cpu.Seq) {
	frames := d.segments(q.Buf, q.N)
	var next func(*cpu.Seq)
	next = func(q *cpu.Seq) {
		for len(frames) > 0 {
			fr := frames[0]
			frames = frames[1:]
			if d.drop() {
				continue
			}
			q.Wait(d.serialize, len(fr)).Hook(func(*cpu.Seq) { d.deliver(fr) }).Hook(next)
			return
		}
	}
	q.Hook(next)
}

// segments cuts a frame handed over with TSO segment size seg (0 for
// none) into its wire frames.
func (d *wireDev) segments(frame []byte, seg int) [][]byte {
	var out [][]byte
	for off := 0; ; {
		var fr []byte
		fr, off = SegmentTSO(d.peer, frame, seg, off)
		if out = append(out, fr); off == 0 {
			return out
		}
	}
}

// drop counts a frame and reports whether the link loses it.
func (d *wireDev) drop() bool {
	d.count++
	if d.dropNext > 0 {
		d.dropNext--
		return true
	}
	return (d.dropAt > 0 && d.count == d.dropAt) || (d.dropEvery > 0 && d.count%d.dropEvery == 0)
}

func (d *wireDev) serialize(n int, done func()) { d.k.After(sim.AtRate(int64(n), d.rate), done) }

// deliver hands a serialized frame to the peer after the link latency.
func (d *wireDev) deliver(fr []byte) {
	lat := d.latency
	if d.jitterFn != nil {
		lat = d.jitterFn()
	}
	d.k.After(lat, func() {
		d.k.Go(d.name+"/rx", func(rp *sim.Proc) {
			d.peer.RxFrame(rp, d.peerDev, fr)
		})
	})
}

type pair struct {
	k      *sim.Kernel
	a, b   *Stack
	ad, bd *wireDev
}

func newPair(t *testing.T, mtu int, tso bool) *pair {
	t.Helper()
	k := sim.NewKernel()
	ca := cpu.New(k, "a", 4, sim.GHz(3), cpu.DefaultOSCosts())
	cb := cpu.New(k, "b", 4, sim.GHz(3), cpu.DefaultOSCosts())
	sa := NewStack(k, ca, "a", DefaultProtoCosts())
	sb := NewStack(k, cb, "b", DefaultProtoCosts())
	feats := Features{TSO: tso}
	ad := &wireDev{k: k, name: "eth-a", mac: NewMAC(1), mtu: mtu, latency: sim.Microsecond, rate: sim.Gbps(10), feats: feats}
	bd := &wireDev{k: k, name: "eth-b", mac: NewMAC(2), mtu: mtu, latency: sim.Microsecond, rate: sim.Gbps(10), feats: feats}
	ad.peer, ad.peerDev = sb, bd
	bd.peer, bd.peerDev = sa, ad
	ipa, ipb := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
	ia := sa.AddIface(ad, ipa, Mask24)
	ib := sb.AddIface(bd, ipb, Mask24)
	ia.Neighbors[ipb] = bd.mac
	ib.Neighbors[ipa] = ad.mac
	return &pair{k: k, a: sa, b: sb, ad: ad, bd: bd}
}

func TestChecksumRFC1071(t *testing.T) {
	// Known vector: RFC 1071 example data.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum=%#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumComplementProperty(t *testing.T) {
	// Property: embedding the checksum makes the total checksum zero.
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		buf := make([]byte, 2+len(data))
		copy(buf[2:], data)
		cs := Checksum(buf)
		buf[0], buf[1] = byte(cs>>8), byte(cs)
		return Checksum(buf) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTrips(t *testing.T) {
	fe := make([]byte, EthHeaderBytes)
	eh := EthHeader{Dst: NewMAC(5), Src: NewMAC(9), Type: EtherTypeIPv4}
	PutEth(fe, eh)
	if got, ok := ParseEth(fe); !ok || got != eh {
		t.Fatalf("eth roundtrip: %+v", got)
	}

	fi := make([]byte, IPv4HeaderBytes)
	ih := IPv4Header{TotalLen: 1500, ID: 7, TTL: 64, Proto: ProtoTCP, Src: IPv4(1, 2, 3, 4), Dst: IPv4(5, 6, 7, 8)}
	PutIPv4(fi, ih)
	got, ok := ParseIPv4(fi)
	if !ok || got.TotalLen != 1500 || got.Proto != ProtoTCP || got.Src != ih.Src || got.Dst != ih.Dst {
		t.Fatalf("ipv4 roundtrip: %+v", got)
	}
	if !VerifyIPv4Checksum(fi) {
		t.Fatal("fresh IPv4 header fails checksum")
	}
	fi[3]++ // corrupt
	if VerifyIPv4Checksum(fi) {
		t.Fatal("corrupted IPv4 header passes checksum")
	}

	payload := []byte("hello world")
	ft := make([]byte, TCPHeaderBytes+len(payload))
	th := TCPHeader{SrcPort: 80, DstPort: 1234, Seq: 1e9, Ack: 42, Flags: TCPAck | TCPPsh, Window: 1 << 17}
	PutTCP(ft, th, ih.Src, ih.Dst, payload)
	copy(ft[TCPHeaderBytes:], payload)
	gt, ok := ParseTCP(ft)
	if !ok || gt.Seq != th.Seq || gt.Ack != 42 || gt.Flags != th.Flags {
		t.Fatalf("tcp roundtrip: %+v", gt)
	}
	if gt.Window != th.Window {
		t.Fatalf("window scaling roundtrip: got %d want %d", gt.Window, th.Window)
	}
	if !VerifyTCPChecksum(ft, ih.Src, ih.Dst) {
		t.Fatal("TCP checksum invalid")
	}
	ft[TCPHeaderBytes]++
	if VerifyTCPChecksum(ft, ih.Src, ih.Dst) {
		t.Fatal("corrupted TCP passes checksum")
	}
}

func TestSeqArithmeticWraps(t *testing.T) {
	if !SeqLT(0xffffffff, 1) {
		t.Fatal("wraparound compare broken")
	}
	if !SeqGT(1, 0xffffffff) {
		t.Fatal("wraparound compare broken")
	}
	if !SeqLEQ(5, 5) || !SeqGEQ(5, 5) {
		t.Fatal("equality compare broken")
	}
}

func TestRouting(t *testing.T) {
	k := sim.NewKernel()
	c := cpu.New(k, "h", 1, sim.GHz(3), cpu.DefaultOSCosts())
	s := NewStack(k, c, "h", DefaultProtoCosts())
	d1 := &wireDev{k: k, name: "mcn0", mac: NewMAC(1), mtu: 1500}
	d2 := &wireDev{k: k, name: "mcn1", mac: NewMAC(2), mtu: 1500}
	d3 := &wireDev{k: k, name: "eth0", mac: NewMAC(3), mtu: 1500}
	// Host-side MCN interfaces: /32 masks (Sec. III-B).
	s.AddIface(d1, IPv4(192, 168, 1, 2), MaskAll)
	s.AddIface(d2, IPv4(192, 168, 1, 3), MaskAll)
	s.AddIface(d3, IPv4(10, 0, 0, 1), Mask24)

	ifc, err := s.route(IPv4(192, 168, 1, 3))
	if err != nil || ifc.Dev.Name() != "mcn1" {
		t.Fatalf("route to mcn1: %v %v", ifc, err)
	}
	ifc, err = s.route(IPv4(10, 0, 0, 77))
	if err != nil || ifc.Dev.Name() != "eth0" {
		t.Fatalf("route to LAN: %v %v", ifc, err)
	}
	if _, err := s.route(IPv4(8, 8, 8, 8)); err == nil {
		t.Fatal("unroutable address should error")
	}

	// An MCN-side stack: one interface, mask 0.0.0.0 forwards everything.
	sm := NewStack(k, c, "mcn", DefaultProtoCosts())
	sm.AddIface(d1, IPv4(192, 168, 1, 2), MaskNone)
	if ifc, err := sm.route(IPv4(8, 8, 8, 8)); err != nil || ifc.Dev.Name() != "mcn0" {
		t.Fatalf("MCN default route: %v %v", ifc, err)
	}
	k.Shutdown()
}

func TestPingRoundTrip(t *testing.T) {
	pr := newPair(t, 1500, false)
	var rtt sim.Duration
	var ok bool
	pr.k.Go("pinger", func(p *sim.Proc) {
		rtt, ok = pr.a.Ping(p, IPv4(10, 0, 0, 2), 56, sim.Second)
	})
	pr.k.Run()
	if !ok {
		t.Fatal("ping timed out")
	}
	// 2x (1us wire + serialization + stack costs): must exceed 2us and
	// stay well under 100us.
	if rtt < 2*sim.Microsecond || rtt > 100*sim.Microsecond {
		t.Fatalf("rtt=%v", rtt)
	}
	pr.k.Shutdown()
}

func TestPingPayloadScaling(t *testing.T) {
	pr := newPair(t, 9000, false)
	var rtts []sim.Duration
	pr.k.Go("pinger", func(p *sim.Proc) {
		for _, sz := range []int{16, 1024, 8192} {
			rtt, ok := pr.a.Ping(p, IPv4(10, 0, 0, 2), sz, sim.Second)
			if !ok {
				panic("ping lost")
			}
			rtts = append(rtts, rtt)
		}
	})
	pr.k.Run()
	if !(rtts[0] < rtts[1] && rtts[1] < rtts[2]) {
		t.Fatalf("rtt should grow with payload: %v", rtts)
	}
	pr.k.Shutdown()
}

func TestTCPConnectSendRecv(t *testing.T) {
	pr := newPair(t, 1500, false)
	msg := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16KB
	var got []byte
	pr.k.Go("server", func(p *sim.Proc) {
		l, err := pr.b.Listen(5001)
		if err != nil {
			panic(err)
		}
		c, err := l.Accept(p)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 4096)
		for {
			n, ok := c.Recv(p, buf)
			got = append(got, buf[:n]...)
			if !ok {
				break
			}
		}
		c.Close(p)
	})
	pr.k.Go("client", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		if err := c.Send(p, msg); err != nil {
			panic(err)
		}
		c.Close(p)
	})
	pr.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted: got %d bytes want %d", len(got), len(msg))
	}
	pr.k.Shutdown()
}

func TestTCPBidirectional(t *testing.T) {
	pr := newPair(t, 1500, false)
	var reply []byte
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(7)
		c, _ := l.Accept(p)
		buf := make([]byte, 1024)
		n, _ := c.Recv(p, buf)
		// Echo back doubled.
		c.Send(p, append(buf[:n], buf[:n]...))
		c.Close(p)
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 7)
		if err != nil {
			panic(err)
		}
		c.Send(p, []byte("ping"))
		buf := make([]byte, 64)
		for len(reply) < 8 {
			n, ok := c.Recv(p, buf)
			reply = append(reply, buf[:n]...)
			if !ok {
				break
			}
		}
		c.Close(p)
	})
	pr.k.Run()
	if string(reply) != "pingping" {
		t.Fatalf("reply=%q", reply)
	}
	pr.k.Shutdown()
}

func TestTCPRetransmissionRecoversDrops(t *testing.T) {
	pr := newPair(t, 1500, false)
	pr.ad.dropEvery = 13 // drop ~8% of client->server frames
	msg := bytes.Repeat([]byte{0xAB}, 200*1024)
	var got int
	var clientConn *TCPConn
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		c, _ := l.Accept(p)
		got = c.RecvAll(p)
		c.Close(p)
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		clientConn = c
		c.Send(p, msg)
		c.Close(p)
	})
	pr.k.RunUntil(sim.Time(30 * sim.Second))
	if got != len(msg) {
		t.Fatalf("received %d bytes, want %d", got, len(msg))
	}
	if clientConn.Retransmit == 0 {
		t.Fatal("expected retransmissions on a lossy link")
	}
	pr.k.Shutdown()
}

func TestTCPThroughputReasonable(t *testing.T) {
	pr := newPair(t, 1500, false)
	const total = 4 << 20
	var start, end sim.Time
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		c, _ := l.Accept(p)
		start = p.Now()
		c.RecvN(p, total)
		end = p.Now()
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, total)
	})
	pr.k.RunUntil(sim.Time(5 * sim.Second))
	bw := float64(total) / end.Sub(start).Seconds()
	// A 10Gbps link with 1.5KB MTU: expect 3..10 Gbps after software
	// overheads.
	if bw < 3e9/8 || bw > 10.1e9/8 {
		t.Fatalf("throughput %.3g B/s outside sanity range", bw)
	}
	pr.k.Shutdown()
}

func TestTSOSegmentation(t *testing.T) {
	// Build a jumbo frame and segment it; verify sequence continuity and
	// checksums.
	payload := bytes.Repeat([]byte{0x5A}, 4000)
	frame := make([]byte, EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes+len(payload))
	PutEth(frame, EthHeader{Dst: NewMAC(1), Src: NewMAC(2), Type: EtherTypeIPv4})
	src, dst := IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2)
	PutIPv4(frame[EthHeaderBytes:], IPv4Header{TotalLen: uint16(IPv4HeaderBytes + TCPHeaderBytes + len(payload)), TTL: 64, Proto: ProtoTCP, Src: src, Dst: dst})
	PutTCP(frame[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{SrcPort: 1, DstPort: 2, Seq: 1000, Flags: TCPAck | TCPPsh, Window: 1 << 16}, src, dst, payload)
	copy(frame[EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes:], payload)

	segs := (&wireDev{peer: &Stack{pool: new(framePool)}}).segments(frame, 1460)
	if len(segs) != 3 { // 1460+1460+1080
		t.Fatalf("segments=%d, want 3", len(segs))
	}
	wantSeq := uint32(1000)
	var reassembled []byte
	for i, s := range segs {
		ih, _ := ParseIPv4(s[EthHeaderBytes:])
		th, _ := ParseTCP(s[EthHeaderBytes+IPv4HeaderBytes:])
		if th.Seq != wantSeq {
			t.Fatalf("segment %d seq=%d want %d", i, th.Seq, wantSeq)
		}
		if !VerifyIPv4Checksum(s[EthHeaderBytes:]) {
			t.Fatalf("segment %d bad IP checksum", i)
		}
		if !VerifyTCPChecksum(s[EthHeaderBytes+IPv4HeaderBytes:EthHeaderBytes+int(ih.TotalLen)], src, dst) {
			t.Fatalf("segment %d bad TCP checksum", i)
		}
		data := s[EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes : EthHeaderBytes+int(ih.TotalLen)]
		wantSeq += uint32(len(data))
		reassembled = append(reassembled, data...)
		if i < len(segs)-1 && th.Flags&TCPPsh != 0 {
			t.Fatalf("PSH set on non-final segment %d", i)
		}
	}
	if !bytes.Equal(reassembled, payload) {
		t.Fatal("TSO split corrupted payload")
	}
}

func TestTCPWithTSODelivers(t *testing.T) {
	pr := newPair(t, 1500, true)
	msg := bytes.Repeat([]byte("tso!"), 64*1024/4) // 64KB
	var got []byte
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		c, _ := l.Accept(p)
		buf := make([]byte, 8192)
		for {
			n, ok := c.Recv(p, buf)
			got = append(got, buf[:n]...)
			if !ok {
				break
			}
		}
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		c.Send(p, msg)
		c.Close(p)
	})
	pr.k.RunUntil(sim.Time(5 * sim.Second))
	if !bytes.Equal(got, msg) {
		t.Fatalf("TSO stream corrupted: got %d want %d bytes", len(got), len(msg))
	}
	pr.k.Shutdown()
}

func TestUDPSendRecv(t *testing.T) {
	pr := newPair(t, 1500, false)
	var got Datagram
	pr.k.Go("server", func(p *sim.Proc) {
		u, _ := pr.b.UDPBind(9000)
		got, _ = u.Recv(p)
	})
	pr.k.Go("client", func(p *sim.Proc) {
		u, _ := pr.a.UDPBind(0)
		p.Sleep(sim.Microsecond)
		u.SendTo(p, IPv4(10, 0, 0, 2), 9000, []byte("datagram"))
	})
	pr.k.Run()
	if string(got.Data) != "datagram" || got.Src != IPv4(10, 0, 0, 1) {
		t.Fatalf("got %+v", got)
	}
	pr.k.Shutdown()
}

func TestLoopbackTCP(t *testing.T) {
	k := sim.NewKernel()
	c := cpu.New(k, "h", 2, sim.GHz(3), cpu.DefaultOSCosts())
	s := NewStack(k, c, "h", DefaultProtoCosts())
	var got []byte
	k.Go("server", func(p *sim.Proc) {
		l, _ := s.Listen(80)
		conn, _ := l.Accept(p)
		buf := make([]byte, 64)
		n, _ := conn.Recv(p, buf)
		got = buf[:n]
	})
	k.Go("client", func(p *sim.Proc) {
		conn, err := s.Connect(p, Loopback, 80)
		if err != nil {
			panic(err)
		}
		conn.Send(p, []byte("local"))
		conn.Close(p)
	})
	k.Run()
	if string(got) != "local" {
		t.Fatalf("loopback got %q", got)
	}
	k.Shutdown()
}

func TestChecksumBypassReducesCPUWork(t *testing.T) {
	run := func(bypass bool) sim.Duration {
		pr := newPair(t, 1500, false)
		pr.a.ChecksumBypass = bypass
		pr.b.ChecksumBypass = bypass
		pr.k.Go("server", func(p *sim.Proc) {
			l, _ := pr.b.Listen(5001)
			c, _ := l.Accept(p)
			c.RecvN(p, 1<<20)
		})
		pr.k.Go("client", func(p *sim.Proc) {
			c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
			if err != nil {
				panic(err)
			}
			c.SendN(p, 1<<20)
		})
		pr.k.RunUntil(sim.Time(5 * sim.Second))
		busy := pr.a.CPU.Busy.Busy + pr.b.CPU.Busy.Busy
		pr.k.Shutdown()
		return busy
	}
	with := run(false)
	without := run(true)
	if without >= with {
		t.Fatalf("checksum bypass did not reduce CPU time: %v vs %v", without, with)
	}
}

// delayDev wraps wireDev semantics with reordering: every nth frame is
// held back, arriving late and out of order.
func TestTCPReorderingRecovered(t *testing.T) {
	pr := newPair(t, 1500, false)
	// Reorder by delaying every 9th frame an extra 30us.
	n := 0
	origLat := pr.ad.latency
	pr.ad.jitterFn = func() sim.Duration {
		n++
		if n%9 == 0 {
			return origLat + 30*sim.Microsecond
		}
		return origLat
	}
	msg := bytes.Repeat([]byte{0xCD}, 300*1024)
	var got int
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		c, _ := l.Accept(p)
		got = c.RecvAll(p)
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		c.Send(p, msg)
		c.Close(p)
	})
	pr.k.RunUntil(sim.Time(30 * sim.Second))
	if got != len(msg) {
		t.Fatalf("received %d bytes under reordering, want %d", got, len(msg))
	}
	pr.k.Shutdown()
}

func TestConnectRefusedGetsRST(t *testing.T) {
	pr := newPair(t, 1500, false)
	var err error
	var at sim.Time
	pr.k.Go("client", func(p *sim.Proc) {
		_, err = pr.a.Connect(p, IPv4(10, 0, 0, 2), 4444) // nobody listens
		at = p.Now()
	})
	pr.k.RunUntil(sim.Time(5 * sim.Second))
	if err == nil {
		t.Fatal("connect to a closed port must fail")
	}
	// The RST makes the failure fast — far quicker than RTO retries.
	if at > sim.Time(5*sim.Millisecond) {
		t.Fatalf("refusal took %v; RST path not working", at)
	}
}

func TestLoopbackBidirectionalLargeExchange(t *testing.T) {
	// Regression: two loopback deliveries for one connection used to run
	// the receive path concurrently and corrupt rcvNxt (the ft-on-two-
	// nodes deadlock). A bidirectional bulk exchange with the socket
	// lock must complete and deliver exact byte counts.
	k := sim.NewKernel()
	c := cpu.New(k, "h", 8, sim.GHz(3.4), cpu.DefaultOSCosts())
	s := NewStack(k, c, "h", DefaultProtoCosts())
	const each = 2 << 20
	var got0, got1 int
	k.Go("server", func(p *sim.Proc) {
		l, _ := s.Listen(7000)
		conn, _ := l.Accept(p)
		done := k.NewSignal()
		finished := false
		k.Go("server-tx", func(tp *sim.Proc) {
			conn.SendN(tp, each)
			finished = true
			done.Notify()
		})
		got0 = conn.RecvN(p, each)
		for !finished {
			done.Wait(p)
		}
	})
	k.Go("client", func(p *sim.Proc) {
		conn, err := s.Connect(p, Loopback, 7000)
		if err != nil {
			panic(err)
		}
		done := k.NewSignal()
		finished := false
		k.Go("client-tx", func(tp *sim.Proc) {
			conn.SendN(tp, each)
			finished = true
			done.Notify()
		})
		got1 = conn.RecvN(p, each)
		for !finished {
			done.Wait(p)
		}
	})
	k.RunUntil(sim.Time(60 * sim.Second))
	if got0 != each || got1 != each {
		t.Fatalf("exchange incomplete: %d / %d of %d", got0, got1, each)
	}
	k.Shutdown()
}

// TestLoopDevRefusesFrames: loopback packets are delivered inside the
// stack, so the loopback interface's device panics on either transmit
// form instead of losing a frame.
func TestLoopDevRefusesFrames(t *testing.T) {
	for name, send := range map[string]func(){
		"Transmit":      func() { loopDev{}.Transmit(nil, Frame{}) },
		"TransmitSteps": func() { loopDev{}.TransmitSteps(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loopDev.%s accepted a frame", name)
				}
			}()
			send()
		}()
	}
}
