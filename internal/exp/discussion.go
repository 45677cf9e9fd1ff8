package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// DiscussionResult quantifies Sec. VII's two observations: (1) TCP's ACK
// machinery consumes a measurable share of MCN's capacity (the paper cites
// ~25%), and (2) a transport native to the memory channel (internal/mcnt,
// the one the serving tier runs on) that drops TCP/IP recovers bandwidth
// and small-message latency.
type DiscussionResult struct {
	TCPGoodputBps  float64
	FastGoodputBps float64
	FastSpeedup    float64

	DataSegments int64
	AckSegments  int64
	AckShare     float64 // fraction of segments that are pure ACKs

	TCPSmallRTT  sim.Duration
	FastSmallRTT sim.Duration
	LatencyCut   float64
}

func (d *DiscussionResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Sec. VII discussion: TCP overhead on MCN and the channel-native transport")
	fmt.Fprintf(&b, "  TCP (mcn3) stream goodput:      %8.2f Gbps\n", d.TCPGoodputBps*8/1e9)
	fmt.Fprintf(&b, "  mcnt stream goodput:            %8.2f Gbps  (%.2fx)\n", d.FastGoodputBps*8/1e9, d.FastSpeedup)
	fmt.Fprintf(&b, "  pure-ACK share of TCP segments: %8.1f%%  (paper: ACK machinery costs ~25%%)\n", d.AckShare*100)
	fmt.Fprintf(&b, "  64B ping-pong RTT, TCP:         %8v\n", d.TCPSmallRTT)
	fmt.Fprintf(&b, "  64B ping-pong RTT, mcnt:        %8v  (-%.0f%%)\n", d.FastSmallRTT, d.LatencyCut*100)
	return b.String()
}

// Discussion runs the comparison on a one-DIMM MCN server: the same
// stream and the same ping-pong, first over TCP, then over mcnt.
func Discussion() *DiscussionResult {
	res := &DiscussionResult{}
	res.TCPGoodputBps, res.AckSegments, res.DataSegments = discussionStream(false)
	res.AckShare = float64(res.AckSegments) / float64(res.AckSegments+res.DataSegments)
	res.FastGoodputBps, _, _ = discussionStream(true)
	res.FastSpeedup = res.FastGoodputBps / res.TCPGoodputBps

	res.TCPSmallRTT = discussionPingPong(false)
	res.FastSmallRTT = discussionPingPong(true)
	res.LatencyCut = 1 - float64(res.FastSmallRTT)/float64(res.TCPSmallRTT)
	return res
}

// discussionPair builds a one-DIMM MCN server and returns its host and
// DIMM endpoints, on the mcnt transport when native is set.
func discussionPair(k *sim.Kernel, level core.OptLevel, native bool) (host, dimm cluster.Endpoint) {
	s := cluster.NewMcnServer(k, 1, level.Options())
	eps := s.Endpoints()
	host, dimm = eps[0], eps[1]
	if native {
		fab := mcnt.Attach(k, s.Host, mcnt.DefaultParams())
		host.Transport, dimm.Transport = fab.TransportFor(host.Node), fab.TransportFor(dimm.Node)
	}
	return host, dimm
}

// discussionStream pushes 16MB host->DIMM at mcn3 (9KB MTU, interrupts,
// no TSO so the TCP ACK pattern stays per-segment, matching the
// discussion's framing) and returns the goodput in bytes/sec plus, on
// TCP, the receiver's pure-ACK and data-segment counts.
func discussionStream(native bool) (goodputBps float64, acks, segs int64) {
	const streamBytes = 16 << 20
	k := sim.NewKernel()
	host, dimm := discussionPair(k, core.MCN3, native)
	var start, end sim.Time
	k.Go("server", func(p *sim.Proc) {
		l, _ := dimm.ListenConn(5001)
		c, _ := l.AcceptConn(p)
		start = p.Now()
		c.RecvN(p, streamBytes)
		end = p.Now()
		if tc, ok := c.(*netstack.TCPConn); ok {
			acks, segs = tc.AcksSent, tc.SegsRcvd
		}
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := host.DialConn(p, dimm.IP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, streamBytes)
	})
	k.RunUntil(sim.Time(30 * sim.Second))
	if end == 0 {
		panic("discussion: stream did not finish")
	}
	k.Shutdown()
	return float64(streamBytes) / end.Sub(start).Seconds(), acks, segs
}

// discussionPingPong returns the mean round trip of a 64B echo at mcn1.
func discussionPingPong(native bool) sim.Duration {
	k := sim.NewKernel()
	host, dimm := discussionPair(k, core.MCN1, native)
	var avg sim.Duration
	k.Go("server", func(p *sim.Proc) {
		l, _ := dimm.ListenConn(5001)
		c, _ := l.AcceptConn(p)
		buf := make([]byte, 64)
		for {
			n, ok := c.Recv(p, buf)
			if !ok {
				return
			}
			c.Send(p, buf[:n])
		}
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := host.DialConn(p, dimm.IP, 5001)
		if err != nil {
			panic(err)
		}
		msg := make([]byte, 64)
		buf := make([]byte, 64)
		start := p.Now()
		const rounds = 20
		for i := 0; i < rounds; i++ {
			c.Send(p, msg)
			got := 0
			for got < 64 {
				n, _ := c.Recv(p, buf[got:])
				got += n
			}
		}
		avg = p.Now().Sub(start) / rounds
	})
	k.RunUntil(sim.Time(5 * sim.Second))
	k.Shutdown()
	return avg
}
