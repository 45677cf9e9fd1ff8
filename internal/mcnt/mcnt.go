package mcnt

import (
	"encoding/binary"

	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/cpu"
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

	byNode map[*node.Node]*endpoint
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

	ops []*txOp // idle transmit operations
}

type streamPair struct{ dialer, acceptor *Conn }

// adjInfo is one endpoint's precomputed view of a directly reachable
// peer. dev is the device frames toward it leave by: the host's port for
// the DIMM, or a DIMM's own driver for the host and for sibling DIMMs
// (whose frames the host relays by rule F3).
type adjInfo struct {
	name    string
	peerIP  netstack.IP
	peerMAC netstack.MAC
	selfMAC netstack.MAC
	dev     netstack.StepDev
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

	deliver func(*cpu.Seq) // ep.onDeliver, bound once
}

// Attach builds the mcnt fabric over a host and its attached MCN
// DIMMs, claiming both drivers' FastRx hooks for EtherType 0x88B6.
func Attach(k *sim.Kernel, h *node.Host, pr Params) *Fabric {
	if pr.Window == 0 {
		pr = DefaultParams()
	}
	f := &Fabric{
		K: k, Pr: pr,
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
		ep.deliver = ep.onDeliver
		f.byNode[n] = ep
		return ep
	}
	hostEp := newEp(h.Node, h.HostMcnIP(), true)
	for _, m := range h.Mcns {
		port := m.Port
		dimmEp := newEp(m.Node, m.IP, false)
		hostEp.addAdj(&adjInfo{
			name: m.Name, peerIP: m.IP,
			peerMAC: port.McnMAC(), selfMAC: port.MAC(),
			dev: port,
		})
		dimmEp.addAdj(&adjInfo{
			name: h.Name, peerIP: h.HostMcnIP(),
			peerMAC: port.MAC(), selfMAC: port.McnMAC(),
			dev: m.Drv,
		})
		m.Drv.FastRx = dimmEp.rx
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
			di.addAdj(&adjInfo{
				name: mj.Name, peerIP: mj.IP,
				peerMAC: mj.Port.McnMAC(), selfMAC: mi.Port.McnMAC(),
				dev: mi.Drv,
			})
		}
	}
	h.Driver.FastRx = func(q *cpu.Seq, _ *core.HostPort, frame []byte) { hostEp.rx(q, frame) }
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

// rx is the drivers' FastRx step: it runs at the end of the receiving
// context's charge sequence (the host forwarding engine's or a DIMM RPS
// core's) and appends, for a valid frame from a peer, the frame's
// demultiplexing charge and its delivery.
func (ep *endpoint) rx(q *cpu.Seq, frame []byte) {
	if _, _, l := ep.parse(frame); l != nil {
		q.Exec(ep.f.Pr.RxFrameCycles).Hook(ep.deliver)
	}
}

// onDeliver hands the frame in q.Buf, which rx validated, to its link
// once the demultiplexing charge retires.
func (ep *endpoint) onDeliver(q *cpu.Seq) {
	h, payload, l := ep.parse(q.Buf)
	l.onFrame(h, payload, q.Buf)
}

// parse validates an mcnt frame and returns its header, its payload and
// the link from its sender (created on first contact), or a nil link
// when the frame is not a valid one from a peer.
func (ep *endpoint) parse(frame []byte) (Header, []byte, *linkEnd) {
	if len(frame) < netstack.EthHeaderBytes+HeaderBytes {
		return Header{}, nil, nil
	}
	eth, ok := netstack.ParseEth(frame)
	if !ok || eth.Type != EtherType {
		return Header{}, nil, nil
	}
	h, payload, ok := ParseFrame(frame[netstack.EthHeaderBytes:])
	if !ok {
		return Header{}, nil, nil
	}
	return h, payload, ep.link(eth.Src)
}

// A linkEnd is one endpoint's end of one directed point-to-point link:
// the go-back-N sender state toward the peer and the in-order receiver
// state from it. All streams between the two endpoints share it.
type linkEnd struct {
	ep   *endpoint
	adj  *adjInfo
	name string

	txLock *sim.Resource // serializes seq assignment + wire order

	// Sender side. unacked holds the sequenced frames sent and not yet
	// acked, in sequence order; each frame is a buffer from the node
	// stack's pool, recycled when an ack covers it.
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
func (l *linkEnd) onFrame(h Header, payload []byte, raw []byte) {
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
		l.onSequenced(h, payload, raw)
	}
}

// processAck absorbs a cumulative ack: the frames it covers go back to
// the pool and the rest move to the front of unacked, so the queue keeps
// its storage and empties to length 0.
func (l *linkEnd) processAck(wire uint32) {
	na := advance64(l.ackedTo, wire)
	if na == l.ackedTo {
		return
	}
	l.ackedTo = na
	l.progress = true
	i := 0
	for i < len(l.unacked) && l.unacked[i].seq <= na {
		l.ep.n.Stack.RecycleFrameBuf(l.unacked[i].frame)
		i++
	}
	if i > 0 {
		n := copy(l.unacked, l.unacked[i:])
		clear(l.unacked[n:])
		l.unacked = l.unacked[:n]
	}
}

func (l *linkEnd) onSequenced(h Header, payload []byte, raw []byte) {
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
			f.tap.Frame(f.K.Now(), netstack.TapRx, l.name, raw)
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

// resend retransmits every unacked frame in order, holding the TX lock,
// as one charge sequence. Acks keep arriving while the burst runs, so it
// walks the live queue by sequence number: a frame acked meanwhile is
// skipped, and each frame is copied out of the queue before its
// transmit, since processAck recycles the frames it acks.
func (l *linkEnd) resend(p *sim.Proc) {
	op := l.ep.f.op(l)
	l.ep.n.CPU.Seq().Lock(l.txLock).Hook(op.resendNext).Run(p)
	l.ep.f.putOp(op)
}

// sendCtl transmits one unsequenced control frame for a stream. Its ack
// and credit are the values current when it is queued.
func (l *linkEnd) sendCtl(p *sim.Proc, kind uint8, stream uint32) {
	h := Header{Kind: kind, Stream: stream, Ack: uint32(l.expect - 1)}
	if rc := l.ep.conns[stream]; rc != nil {
		h.Credit = uint32(rc.consumedB)
		rc.lastGrant = rc.consumedB
	}
	l.send(p, h, true)
}

// send transmits one frame without payload as a charge sequence: a
// control frame, or a sequenced SYN or FIN.
func (l *linkEnd) send(p *sim.Proc, h Header, ctl bool) {
	op := l.ep.f.op(l)
	op.h, op.ctl = h, ctl
	op.frameSteps(l.ep.n.CPU.Seq()).Run(p)
	l.ep.f.putOp(op)
}

// buildFrame encodes a frame into a buffer from the node stack's pool.
func (l *linkEnd) buildFrame(h Header, payload []byte) []byte {
	h.Len = uint32(len(payload))
	b := l.ep.n.Stack.GetFrameBuf(netstack.EthHeaderBytes + HeaderBytes + len(payload))
	netstack.PutEth(b, netstack.EthHeader{Dst: l.adj.peerMAC, Src: l.adj.selfMAC, Type: EtherType})
	PutHeader(b[netstack.EthHeaderBytes:], h)
	copy(b[netstack.EthHeaderBytes+HeaderBytes:], payload)
	return b
}

// txCopy returns a pool copy of frame for the device, which owns what it
// is handed: the link keeps frame itself until an ack covers it.
func (l *linkEnd) txCopy(frame []byte) []byte {
	b := l.ep.n.Stack.GetFrameBuf(len(frame))
	copy(b, frame)
	return b
}

// A txOp carries one caller's frames through a link as a charge
// sequence: a Send's data frames, a SYN or a FIN, a control frame, or a
// go-back-N resend burst. Each frame takes its TxFrameCycles charge, the
// link's TX lock, a stamp hook that assigns its sequence number, ack and
// credit, the device's transmit steps and a hook that releases the lock:
// the charges and waits the process form made, at the same instants.
// Ops are pooled per fabric with their hooks bound once, so sending
// allocates nothing once the pool is warm.
type txOp struct {
	l *linkEnd
	// A Send's stream and the bytes it has not framed yet (c is nil for
	// every other caller).
	c    *Conn
	data []byte
	// The frame being sent: its header and payload, whether it is a
	// control frame, the copy the link keeps of a sequenced one, and
	// whether it made the resend queue non-empty.
	h        Header
	payload  []byte
	ctl      bool
	kept     []byte
	wasEmpty bool
	// A resend burst: the next sequence number to resend and the number
	// of frames resent.
	next   uint64
	resent int
	// bound once: onData, onStamp, onSent, onResendNext
	dataNext, stamp, sent, resendNext func(*cpu.Seq)
}

// Outcomes of a Send's chain, its N.
const (
	sendDone    = iota // every byte framed
	sendStalled        // the credit window is exhausted
	sendClosed         // the stream was closed
)

// op returns an idle txOp for l.
func (f *Fabric) op(l *linkEnd) *txOp {
	var op *txOp
	if n := len(f.ops); n > 0 {
		op, f.ops = f.ops[n-1], f.ops[:n-1]
	} else {
		op = &txOp{}
		op.dataNext, op.stamp, op.sent, op.resendNext = op.onData, op.onStamp, op.onSent, op.onResendNext
	}
	op.l = l
	return op
}

// putOp returns op to the pool.
func (f *Fabric) putOp(op *txOp) {
	op.l, op.c, op.data, op.h, op.payload, op.ctl = nil, nil, nil, Header{}, nil, false
	op.next, op.resent = 0, 0
	f.ops = append(f.ops, op)
}

// frameSteps appends the frame in op.h and op.payload to q: its charge,
// the TX lock, then the stamp hook.
func (op *txOp) frameSteps(q *cpu.Seq) *cpu.Seq {
	return q.Exec(op.l.ep.f.Pr.TxFrameCycles).Lock(op.l.txLock).Hook(op.stamp)
}

// onData frames a Send's next chunk, as much as MaxData and the credit
// window admit, and ends the chain with N telling Send why when nothing
// more can go.
func (op *txOp) onData(q *cpu.Seq) {
	c := op.c
	q.N = sendDone
	if len(op.data) == 0 {
		return
	}
	if c.closed {
		q.N = sendClosed
		return
	}
	avail := int(uint64(c.ep.f.Pr.Window) - (c.sentB - c.grantB))
	if avail <= 0 {
		q.N = sendStalled
		return
	}
	n := min(len(op.data), MaxData, avail)
	op.h = Header{Kind: KindData, Stream: c.stream, Off: uint32(c.sentB)}
	if c.dialer {
		op.h.Flags = FlagFromDialer
	}
	c.sentB += uint64(n) // reserve before any wait
	op.payload, op.data = op.data[:n], op.data[n:]
	op.frameSteps(q)
}

// onStamp runs with the frame's charge retired and the TX lock held: it
// assigns the frame its place on the link, builds it and appends the
// device's transmit steps and the release hook.
func (op *txOp) onStamp(q *cpu.Seq) {
	l := op.l
	f := l.ep.f
	h := op.h
	l.rxSinceCtl = 0
	if op.ctl {
		f.CtlFrames++
		q.Buf = l.buildFrame(h, nil)
	} else {
		h.Seq = uint32(l.nextSeq)
		seq := l.nextSeq
		l.nextSeq++
		h.Ack = uint32(l.expect - 1)
		if rc := l.ep.conns[h.Stream]; rc != nil {
			h.Credit = uint32(rc.consumedB)
			rc.lastGrant = rc.consumedB
		}
		op.kept = l.buildFrame(h, op.payload)
		op.wasEmpty = len(l.unacked) == 0
		l.unacked = append(l.unacked, sentFrame{seq: seq, stream: h.Stream, frame: op.kept})
		if h.Kind == KindData {
			f.DataFrames++
			f.BytesSent += int64(len(op.payload))
		}
		q.Buf = l.txCopy(op.kept)
	}
	q.N = 0
	l.adj.dev.TransmitSteps(q)
	q.Hook(op.sent)
}

// onSent runs when the device has the frame: the host taps its data
// frames, the TX lock goes, the resend engine learns of a queue that
// became non-empty, and a Send goes on to its next chunk. No ack can
// have covered the kept frame yet: the device handed it over just now.
func (op *txOp) onSent(q *cpu.Seq) {
	l := op.l
	f := l.ep.f
	if op.kept != nil && l.ep.isHost && f.tap != nil && op.h.Kind == KindData {
		f.tap.Frame(f.K.Now(), netstack.TapTx, l.name, op.kept)
	}
	l.txLock.Release()
	if op.wasEmpty {
		l.retxSig.Notify()
	}
	op.kept, op.wasEmpty = nil, false
	if op.c != nil {
		q.Hook(op.dataNext)
	}
}

// onResendNext resends the first unacked frame from op.next on, with the
// cumulative ack and credit fields patched to current values (both
// monotone, so patching is always safe), or ends the burst.
func (op *txOp) onResendNext(q *cpu.Seq) {
	l := op.l
	f := l.ep.f
	i := 0
	if len(l.unacked) > 0 && op.next > l.unacked[0].seq {
		i = int(op.next - l.unacked[0].seq)
	}
	if i >= len(l.unacked) {
		if op.resent > 0 && f.OnResend != nil {
			f.OnResend(f.K.Now(), op.resent)
		}
		l.rxSinceCtl = 0
		l.txLock.Release()
		return
	}
	sf := &l.unacked[i]
	op.next = sf.seq + 1
	fr := l.txCopy(sf.frame)
	hdr := fr[netstack.EthHeaderBytes:]
	binary.LittleEndian.PutUint32(hdr[ackOff:], uint32(l.expect-1))
	if c := l.ep.conns[sf.stream]; c != nil {
		binary.LittleEndian.PutUint32(hdr[creditOff:], uint32(c.consumedB))
	}
	f.Resent++
	op.resent++
	q.Buf, q.N = fr, 0
	l.adj.dev.TransmitSteps(q)
	q.Hook(op.resendNext)
}
