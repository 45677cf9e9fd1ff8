package mcnt

import (
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Params tunes the transport. The cycle costs are what an mcnt
// endpoint pays per frame on top of the driver's ring costs — the
// whole point of the protocol is that they replace the TCP/IP
// per-segment costs (TCPTx 2600 + IPTx 600 down, TCPRx 3200 + IPRx
// 700 up, plus the ACK clock's extra frames).
type Params struct {
	// Window is the per-stream credit window in bytes.
	Window int
	// TxFrameCycles / RxFrameCycles are the endpoint CPU cost of
	// framing and demultiplexing one frame.
	TxFrameCycles, RxFrameCycles int64
	// ResendTimeout is how long a link tolerates unacked frames with
	// no cumulative-ack progress before a go-back-N resend. It only
	// matters under injected faults; fault-free runs never hit it.
	ResendTimeout sim.Duration
	// ProbeTimeout is how long a credit-blocked sender waits before
	// soliciting a re-grant (recovers lost pure-credit frames).
	ProbeTimeout sim.Duration
	// AckEvery bounds how many sequenced frames a receiver absorbs
	// before volunteering a credit/ack frame when it has no reverse
	// traffic to piggyback on.
	AckEvery int
}

// DefaultParams returns the tuning used by the experiments.
func DefaultParams() Params {
	return Params{
		Window:        DefaultWindow,
		TxFrameCycles: 120,
		RxFrameCycles: 180,
		ResendTimeout: 400 * sim.Microsecond,
		ProbeTimeout:  300 * sim.Microsecond,
		AckEvery:      8,
	}
}

// Fabric is one host's mcnt domain: the host endpoint plus one
// endpoint per MCN DIMM, full-mesh reachable (DIMM-to-DIMM frames ride
// the forwarding engine's F3 relay). Streams are dialed by IP across
// it; IPs outside the fabric fall back to TCP via TransportFor.
type Fabric struct {
	K  *sim.Kernel
	Pr Params

	byIP   map[netstack.IP]*endpoint
	byNode map[*node.Node]*endpoint
	eps    []*endpoint
	links  []*linkEnd

	nextStream uint32
	pairs      map[uint32]*streamPair
	streams    []uint32 // pair creation order (deterministic iteration)
	tap        netstack.Tap

	// Counters (fabric-wide, for figures and tests).
	DataFrames, CtlFrames, Resent, Nacks, Probes int64
	BytesSent                                    int64

	// OnResend and OnCreditStall, when set, observe recovery activity
	// (a go-back-N resend burst of n frames; a sender blocking on
	// exhausted stream credit). They are plain func fields rather than
	// an interface so the observability plane can subscribe without
	// this package importing it; like every observation hook they must
	// charge no simulated time and draw no randomness.
	OnResend      func(at sim.Time, frames int)
	OnCreditStall func(at sim.Time)
}

type streamPair struct{ dialer, acceptor *Conn }

// adjInfo is one endpoint's precomputed view of a directly reachable
// peer.
type adjInfo struct {
	name     string
	peerIP   netstack.IP
	peerMAC  netstack.MAC
	selfMAC  netstack.MAC
	transmit func(p *sim.Proc, frame []byte)
}

type endpoint struct {
	f      *Fabric
	n      *node.Node
	ip     netstack.IP
	isHost bool

	adjByMAC   map[netstack.MAC]*adjInfo
	adjByIP    map[netstack.IP]*adjInfo
	linksByMAC map[netstack.MAC]*linkEnd

	conns     map[uint32]*Conn
	listeners map[uint16]*Listener
	embryo    map[uint16][]*Conn
}

// Attach builds the mcnt fabric over a host and its attached MCN
// DIMMs, claiming both drivers' FastRx hooks for EtherType 0x88B6.
func Attach(k *sim.Kernel, h *node.Host, pr Params) *Fabric {
	if pr.Window == 0 {
		pr = DefaultParams()
	}
	f := &Fabric{
		K: k, Pr: pr,
		byIP:       make(map[netstack.IP]*endpoint),
		byNode:     make(map[*node.Node]*endpoint),
		pairs:      make(map[uint32]*streamPair),
		nextStream: 49152,
	}
	newEp := func(n *node.Node, ip netstack.IP, isHost bool) *endpoint {
		ep := &endpoint{
			f: f, n: n, ip: ip, isHost: isHost,
			adjByMAC:   make(map[netstack.MAC]*adjInfo),
			adjByIP:    make(map[netstack.IP]*adjInfo),
			linksByMAC: make(map[netstack.MAC]*linkEnd),
			conns:      make(map[uint32]*Conn),
			listeners:  make(map[uint16]*Listener),
			embryo:     make(map[uint16][]*Conn),
		}
		f.byIP[ip] = ep
		f.byNode[n] = ep
		f.eps = append(f.eps, ep)
		return ep
	}
	hostEp := newEp(h.Node, h.HostMcnIP(), true)
	for _, m := range h.Mcns {
		m := m
		port := m.Port
		dimmEp := newEp(m.Node, m.IP, false)
		hostEp.addAdj(&adjInfo{
			name: m.Name, peerIP: m.IP,
			peerMAC: port.McnMAC(), selfMAC: port.MAC(),
			transmit: func(p *sim.Proc, fr []byte) { port.Transmit(p, netstack.Frame{Data: fr}) },
		})
		dimmEp.addAdj(&adjInfo{
			name: h.Name, peerIP: h.HostMcnIP(),
			peerMAC: port.MAC(), selfMAC: port.McnMAC(),
			transmit: func(p *sim.Proc, fr []byte) { m.Drv.Transmit(p, netstack.Frame{Data: fr}) },
		})
		m.Drv.FastRx = func(p *sim.Proc, frame []byte) { dimmEp.onFrame(p, frame) }
	}
	// Sibling DIMMs: direct mcnMAC-to-mcnMAC frames, relayed by the
	// host's forwarding engine (rule F3 handles non-IP EtherTypes the
	// same way it relays IP between DIMMs).
	for i, mi := range h.Mcns {
		di := f.byNode[mi.Node]
		for j, mj := range h.Mcns {
			if i == j {
				continue
			}
			mi := mi
			di.addAdj(&adjInfo{
				name: mj.Name, peerIP: mj.IP,
				peerMAC: mj.Port.McnMAC(), selfMAC: mi.Port.McnMAC(),
				transmit: func(p *sim.Proc, fr []byte) { mi.Drv.Transmit(p, netstack.Frame{Data: fr}) },
			})
		}
	}
	h.Driver.FastRx = func(p *sim.Proc, _ *core.HostPort, frame []byte) { hostEp.onFrame(p, frame) }
	return f
}

func (ep *endpoint) addAdj(a *adjInfo) {
	ep.adjByMAC[a.peerMAC] = a
	ep.adjByIP[a.peerIP] = a
}

// SetTap installs a frame tap (nil to disable). It sees only data frames:
// the host endpoint's as netstack.TapTx when handed to a DIMM port (where
// TCP's host-TX stamp fires), and each DIMM endpoint's as netstack.TapRx
// when delivered in order to its stream. Both are named by link.
func (f *Fabric) SetTap(t netstack.Tap) { f.tap = t }

// link returns (lazily creating) the directed link toward the peer
// with the given MAC.
func (ep *endpoint) link(peer netstack.MAC) *linkEnd {
	if l, ok := ep.linksByMAC[peer]; ok {
		return l
	}
	a, ok := ep.adjByMAC[peer]
	if !ok {
		return nil
	}
	l := &linkEnd{
		ep: ep, adj: a,
		name:    ep.n.Name + "->" + a.name,
		nextSeq: 1, expect: 1,
		txLock:  ep.f.K.NewResource(1),
		retxSig: ep.f.K.NewSignal(),
		ctlSig:  ep.f.K.NewSignal(),
		ctlSet:  make(map[uint32]bool),
	}
	ep.linksByMAC[peer] = l
	ep.f.links = append(ep.f.links, l)
	ep.f.K.Go("mcnt/"+l.name+"/ctl", l.ctlLoop)
	ep.f.K.Go("mcnt/"+l.name+"/retx", l.retxLoop)
	return l
}

// onFrame is the FastRx entry: it runs in the receiving driver's
// context (host forwarding engine or DIMM RPS dispatch).
func (ep *endpoint) onFrame(p *sim.Proc, frame []byte) {
	if len(frame) < netstack.EthHeaderBytes+HeaderBytes {
		return
	}
	eth, ok := netstack.ParseEth(frame)
	if !ok || eth.Type != EtherType {
		return
	}
	h, payload, ok := ParseFrame(frame[netstack.EthHeaderBytes:])
	if !ok {
		return
	}
	l := ep.link(eth.Src)
	if l == nil {
		return
	}
	ep.n.CPU.Exec(p, ep.f.Pr.RxFrameCycles)
	l.onFrame(p, h, payload, frame)
}

// A linkEnd is one endpoint's end of one directed point-to-point link:
// the go-back-N sender state toward the peer and the in-order receiver
// state from it. All streams between the two endpoints share it.
type linkEnd struct {
	ep   *endpoint
	adj  *adjInfo
	name string

	txLock *sim.Resource // serializes seq assignment + wire order

	// Sender side.
	nextSeq    uint64 // next sequence number to assign (starts at 1)
	ackedTo    uint64 // highest cumulative ack received
	unacked    []sentFrame
	progress   bool // ack advanced since the last resend-timer check
	fastResend bool // peer NACKed: resend without waiting for timeout
	retxSig    *sim.Signal

	// Receiver side.
	expect      uint64 // next in-order sequence expected (starts at 1)
	rxSinceCtl  int    // sequenced frames absorbed since we last sent anything
	ctlSig      *sim.Signal
	ctlSet      map[uint32]bool
	ctlQ        []uint32
	nackPending bool
	nackStream  uint32
}

type sentFrame struct {
	seq    uint64
	stream uint32
	frame  []byte
}

// onFrame handles one validated frame from the peer.
func (l *linkEnd) onFrame(p *sim.Proc, h Header, payload []byte, raw []byte) {
	l.processAck(h.Ack)
	if c := l.ep.conns[h.Stream]; c != nil {
		c.onCredit(h.Credit)
	}
	switch h.Kind {
	case KindCredit:
		// Ack and credit were already absorbed above.
	case KindNack:
		l.ep.f.Nacks++
		if len(l.unacked) > 0 {
			l.fastResend = true
			l.retxSig.Notify()
		}
	case KindProbe:
		l.ep.f.Probes++
		l.wantCtl(h.Stream)
	default: // sequenced: data / syn / fin
		l.onSequenced(p, h, payload, raw)
	}
}

func (l *linkEnd) processAck(wire uint32) {
	na := advance64(l.ackedTo, wire)
	if na == l.ackedTo {
		return
	}
	l.ackedTo = na
	l.progress = true
	i := 0
	for i < len(l.unacked) && l.unacked[i].seq <= na {
		l.unacked[i].frame = nil
		i++
	}
	if i > 0 {
		l.unacked = l.unacked[i:]
	}
}

func (l *linkEnd) onSequenced(p *sim.Proc, h Header, payload []byte, raw []byte) {
	delta := int32(h.Seq - uint32(l.expect))
	switch {
	case delta == 0: // in order
	case delta < 0:
		// Duplicate: the peer resent because our ack was lost.
		// Re-announce the cumulative ack (and this stream's credit).
		l.wantCtl(h.Stream)
		return
	default:
		// Gap: a frame was eaten by the channel. Go-back-N: drop this
		// one and tell the sender where to rewind to.
		if !l.nackPending {
			l.nackPending = true
			l.nackStream = h.Stream
			l.ctlSig.Notify()
		}
		return
	}
	l.expect++
	l.rxSinceCtl++
	ep := l.ep
	f := ep.f
	switch h.Kind {
	case KindSyn:
		port := uint16(h.Off)
		c := newConn(ep, l, h.Stream, false, ep.ip, port, l.adj.peerIP, uint16(h.Stream))
		ep.conns[h.Stream] = c
		if pr := f.pairs[h.Stream]; pr != nil {
			pr.acceptor = c
		}
		if ln := ep.listeners[port]; ln != nil {
			ln.q.TryPut(c)
		} else {
			ep.embryo[port] = append(ep.embryo[port], c)
		}
	case KindData:
		c := ep.conns[h.Stream]
		if c == nil {
			break
		}
		c.rxbuf.Write(payload)
		c.rcvdB += uint64(len(payload))
		c.rxSig.Notify()
		if !ep.isHost && f.tap != nil {
			f.tap.Frame(p.Now(), netstack.TapRx, l.name, raw)
		}
	case KindFin:
		c := ep.conns[h.Stream]
		if c == nil {
			break
		}
		c.peerClosed = true
		c.rxSig.Notify()
		c.sendSig.Notify()
	}
	if l.rxSinceCtl >= f.Pr.AckEvery {
		l.wantCtl(h.Stream)
	}
}

// wantCtl queues an idempotent credit/ack frame for the stream.
func (l *linkEnd) wantCtl(stream uint32) {
	if !l.ctlSet[stream] {
		l.ctlSet[stream] = true
		l.ctlQ = append(l.ctlQ, stream)
	}
	l.ctlSig.Notify()
}

// ctlLoop emits control frames (acks/credits/nacks) from its own
// process: the RX path must never transmit from driver context.
func (l *linkEnd) ctlLoop(p *sim.Proc) {
	for {
		if !l.nackPending && len(l.ctlQ) == 0 {
			l.ctlSig.Wait(p)
			continue
		}
		if l.nackPending {
			s := l.nackStream
			l.nackPending = false
			l.sendCtl(p, KindNack, s)
			continue
		}
		s := l.ctlQ[0]
		l.ctlQ = l.ctlQ[1:]
		delete(l.ctlSet, s)
		l.sendCtl(p, KindCredit, s)
	}
}

// retxLoop is the go-back-N recovery engine: it only transmits when
// the peer NACKs a gap or unacked frames see no ack progress for a
// full ResendTimeout. Fault-free runs park here forever.
func (l *linkEnd) retxLoop(p *sim.Proc) {
	for {
		if len(l.unacked) == 0 && !l.fastResend {
			l.retxSig.Wait(p)
			continue
		}
		if l.fastResend {
			l.fastResend = false
			l.resend(p)
			continue
		}
		if l.retxSig.WaitTimeout(p, l.ep.f.Pr.ResendTimeout) {
			continue // kicked: new state, re-evaluate
		}
		if len(l.unacked) == 0 {
			continue
		}
		if l.progress {
			l.progress = false
			continue
		}
		l.resend(p)
	}
}

// resend retransmits every unacked frame in order, patching the
// cumulative ack and credit fields to current values (both monotone,
// so patching is always safe). The frames are copied: the originals
// may still be aliased by a ring in flight.
func (l *linkEnd) resend(p *sim.Proc) {
	l.txLock.Acquire(p)
	for i := range l.unacked {
		sf := &l.unacked[i]
		fr := append([]byte(nil), sf.frame...)
		hdr := fr[netstack.EthHeaderBytes:]
		putU32 := func(off int, v uint32) {
			hdr[off] = byte(v)
			hdr[off+1] = byte(v >> 8)
			hdr[off+2] = byte(v >> 16)
			hdr[off+3] = byte(v >> 24)
		}
		putU32(ackOff, uint32(l.expect-1))
		if c := l.ep.conns[sf.stream]; c != nil {
			putU32(creditOff, uint32(c.consumedB))
		}
		l.ep.f.Resent++
		l.adj.transmit(p, fr)
	}
	if n := len(l.unacked); n > 0 && l.ep.f.OnResend != nil {
		l.ep.f.OnResend(p.Now(), n)
	}
	l.rxSinceCtl = 0
	l.txLock.Release()
}

// sendSequenced assigns the next link sequence number and transmits,
// holding the TX lock so concurrent streams cannot reorder the wire.
func (l *linkEnd) sendSequenced(p *sim.Proc, h Header, payload []byte) {
	f := l.ep.f
	l.ep.n.CPU.Exec(p, f.Pr.TxFrameCycles)
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
	l.adj.transmit(p, fr)
	if l.ep.isHost && f.tap != nil && h.Kind == KindData {
		f.tap.Frame(p.Now(), netstack.TapTx, l.name, fr)
	}
	l.txLock.Release()
	if wasEmpty {
		l.retxSig.Notify()
	}
}

// sendCtl transmits one unsequenced control frame for a stream.
func (l *linkEnd) sendCtl(p *sim.Proc, kind uint8, stream uint32) {
	f := l.ep.f
	h := Header{Kind: kind, Stream: stream, Ack: uint32(l.expect - 1)}
	if rc := l.ep.conns[stream]; rc != nil {
		h.Credit = uint32(rc.consumedB)
		rc.lastGrant = rc.consumedB
	}
	l.ep.n.CPU.Exec(p, f.Pr.TxFrameCycles)
	l.txLock.Acquire(p)
	f.CtlFrames++
	l.rxSinceCtl = 0
	l.adj.transmit(p, l.buildFrame(h, nil))
	l.txLock.Release()
}

func (l *linkEnd) buildFrame(h Header, payload []byte) []byte {
	h.Len = uint32(len(payload))
	b := make([]byte, netstack.EthHeaderBytes+HeaderBytes+len(payload))
	netstack.PutEth(b, netstack.EthHeader{Dst: l.adj.peerMAC, Src: l.adj.selfMAC, Type: EtherType})
	PutHeader(b[netstack.EthHeaderBytes:], h)
	copy(b[netstack.EthHeaderBytes+HeaderBytes:], payload)
	return b
}
