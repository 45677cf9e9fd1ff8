package netstack

import (
	"bytes"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Sustained loss must back the RTO off exponentially: during a total
// blackout the retransmission cadence doubles every timeout instead of
// hammering at a fixed interval, and a new ACK resets the backoff.
func TestExponentialRTOBackoff(t *testing.T) {
	pr := newPair(t, 1500, false)
	var conn *TCPConn
	done := false
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 4000)
		done = true
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		conn = c
		c.Send(p, make([]byte, 2000))
		p.Sleep(sim.Millisecond) // let the first chunk land cleanly
		pr.ad.dropNext = 1 << 30 // blackout a->b
		c.Send(p, make([]byte, 2000))
	})
	// 60ms of blackout. A fixed-cadence RTO near tcpMinRTO (400us) would
	// fire ~75 times; exponential backoff caps it near log2.
	pr.k.RunUntil(sim.Time(61 * sim.Millisecond))
	if conn == nil || conn.Timeouts < 3 {
		t.Fatalf("blackout produced %d timeouts, want >= 3", conn.Timeouts)
	}
	if conn.Timeouts > 15 {
		t.Fatalf("%d timeouts in 60ms: RTO is not backing off", conn.Timeouts)
	}
	if int64(conn.backoff) != conn.Timeouts {
		t.Fatalf("backoff %d != consecutive timeouts %d", conn.backoff, conn.Timeouts)
	}

	// Heal the path: the transfer completes and the backoff resets.
	pr.ad.dropNext = 0
	pr.k.RunUntil(sim.Time(500 * sim.Millisecond))
	if !done {
		t.Fatal("transfer did not complete after the blackout healed")
	}
	if conn.backoff != 0 {
		t.Fatalf("backoff %d after recovery, want 0", conn.backoff)
	}
	pr.k.Shutdown()
}

// A TCP stream over a lossy link (both directions) must still deliver
// byte-identical data.
func TestLossyLinkByteIdentical(t *testing.T) {
	pr := newPair(t, 1500, false)
	pr.ad.dropEvery = 9 // every 9th a->b frame lost
	pr.bd.dropEvery = 11
	const total = 200 << 10
	msg := make([]byte, total)
	for i := range msg {
		msg[i] = byte(i*7 + i>>8)
	}
	var got []byte
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		c, _ := l.Accept(p)
		buf := make([]byte, 4096)
		for len(got) < total {
			n, ok := c.Recv(p, buf)
			if !ok {
				break
			}
			got = append(got, buf[:n]...)
		}
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		c.Send(p, msg)
	})
	pr.k.RunUntil(sim.Time(5 * sim.Second))
	if len(got) != total {
		t.Fatalf("received %d of %d bytes", len(got), total)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("delivered bytes differ from sent bytes")
	}
	pr.k.Shutdown()
}

// An ARP request lost in flight must not fail resolution: the requester
// retries and the ping completes, just later.
func TestARPLostOnceStillResolves(t *testing.T) {
	// Like newPair but with no static neighbor entries, so the first IP
	// packet triggers a real ARP exchange.
	k := sim.NewKernel()
	ca := cpu.New(k, "a", 4, sim.GHz(3), cpu.DefaultOSCosts())
	cb := cpu.New(k, "b", 4, sim.GHz(3), cpu.DefaultOSCosts())
	sa := NewStack(k, ca, "a", DefaultProtoCosts())
	sb := NewStack(k, cb, "b", DefaultProtoCosts())
	ad := &wireDev{k: k, name: "eth-a", mac: NewMAC(1), mtu: 1500, latency: sim.Microsecond, rate: sim.Gbps(10)}
	bd := &wireDev{k: k, name: "eth-b", mac: NewMAC(2), mtu: 1500, latency: sim.Microsecond, rate: sim.Gbps(10)}
	ad.peer, ad.peerDev = sb, bd
	bd.peer, bd.peerDev = sa, ad
	sa.AddIface(ad, IPv4(10, 0, 0, 1), Mask24)
	sb.AddIface(bd, IPv4(10, 0, 0, 2), Mask24)

	ad.dropNext = 1 // lose the first ARP request
	var rtt sim.Duration
	var ok bool
	k.Go("ping", func(p *sim.Proc) {
		rtt, ok = sa.Ping(p, IPv4(10, 0, 0, 2), 56, sim.Second)
	})
	k.RunUntil(sim.Time(sim.Second))
	if !ok {
		t.Fatal("ping failed: lost ARP request never recovered")
	}
	// The 2ms ARP retry interval dominates the RTT of the eventual ping.
	if rtt < 2*sim.Millisecond {
		t.Fatalf("rtt %v too fast to have included an ARP retry", rtt)
	}
	pingClean(t, k, sa) // and the resolved entry keeps working
}

func pingClean(t *testing.T, k *sim.Kernel, sa *Stack) {
	t.Helper()
	var ok bool
	k.Go("ping2", func(p *sim.Proc) {
		_, ok = sa.Ping(p, IPv4(10, 0, 0, 2), 56, sim.Second)
	})
	k.RunUntil(sim.Time(2 * sim.Second))
	if !ok {
		t.Fatal("second ping failed after successful resolution")
	}
	k.Shutdown()
}

// A single mid-stream frame drop must be recovered by 3-dup-ACK fast
// retransmit within roughly an RTT — no retransmission timeout at all.
func TestFastRetransmitAvoidsRTO(t *testing.T) {
	pr := newPair(t, 1500, false)
	pr.ad.dropAt = 30 // one mid-stream data segment; the ACK path is clean
	const total = 100 << 10
	var conn *TCPConn
	var got int
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		c, _ := l.Accept(p)
		got = c.RecvN(p, total)
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		conn = c
		c.SendN(p, total)
	})
	pr.k.RunUntil(sim.Time(2 * sim.Second))
	if got != total {
		t.Fatalf("received %d of %d", got, total)
	}
	if conn.Retransmit == 0 {
		t.Fatal("no retransmissions despite injected drops")
	}
	if conn.Timeouts != 0 {
		t.Fatalf("%d RTOs fired; fast retransmit should have recovered every drop", conn.Timeouts)
	}
	pr.k.Shutdown()
}

// A FIN that arrives ahead of a lost data segment is dropped, not held
// (see processFin). On a short stream the gap draws too few duplicate
// ACKs for fast retransmit, so the sender's RTO resends the lost segment
// and, behind it, the FIN. Every byte still arrives, in order, and both
// ends close.
func TestOutOfOrderFinWaitsForRetransmit(t *testing.T) {
	pr := newPair(t, 1500, false)
	pr.ad.dropAt = 4 // a->b frames: SYN, ACK, data, data (lost), data, FIN
	data := make([]byte, 3*1460)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got []byte
	var client, server *TCPConn
	pr.k.Go("server", func(p *sim.Proc) {
		l, _ := pr.b.Listen(5001)
		server, _ = l.Accept(p)
		buf := make([]byte, 1024)
		for {
			n, ok := server.Recv(p, buf)
			got = append(got, buf[:n]...)
			if !ok {
				break
			}
		}
		server.Close(p)
	})
	pr.k.Go("client", func(p *sim.Proc) {
		c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
		if err != nil {
			panic(err)
		}
		client = c
		c.Send(p, data)
		c.Close(p)
	})
	pr.k.RunUntil(sim.Time(sim.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("received %d of %d bytes, or out of order", len(got), len(data))
	}
	if client.Retransmit != 1 || client.Timeouts != 1 {
		t.Fatalf("retransmit %d timeouts %d, want one RTO resending the lost segment", client.Retransmit, client.Timeouts)
	}
	if !client.Closed() || !server.Closed() {
		t.Fatalf("closed: client %v server %v", client.Closed(), server.Closed())
	}
	pr.k.Shutdown()
}
