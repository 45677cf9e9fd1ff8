package netstack

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Features describes hardware offloads a device advertises to the stack.
type Features struct {
	// TSO: the device accepts a single over-MTU TCP chunk and segments it
	// itself (steps O1-O4 in Sec. IV-A), or transmits it whole if the
	// medium allows (MCN).
	TSO bool
	// MaxTSOBytes bounds one offloaded chunk (64KB default when zero).
	MaxTSOBytes int
	// HWChecksum: the device computes/verifies TCP checksums in hardware,
	// so the stack charges no CPU cycles for them on this interface.
	HWChecksum bool
}

// Frame is what the stack hands a device: the wire bytes plus offload
// metadata.
type Frame struct {
	Data []byte
	// TSOSegSize is nonzero when Data carries one jumbo TCP chunk that
	// the device must segment into MSS-sized wire packets.
	TSOSegSize int
	// Pooled transfers ownership of Data, a buffer from the sending
	// stack's frame pool: the device may keep it (the MCN drivers park it
	// in an SRAM ring, and the receiver recycles it), recycle it via
	// Stack.RecycleFrameBuf once it is done with the bytes, or let a wire
	// alias it and leave it to the garbage collector. A frame that is not
	// Pooled may be referenced elsewhere: a device that holds it past
	// Transmit copies it first.
	Pooled bool
}

// TapSite is the point on a frame's path where a Tap observed it.
type TapSite uint8

const (
	// TapTx: a stack handed the frame to a device; on the mcnt fabric, the
	// host endpoint handed a data frame to a DIMM port.
	TapTx TapSite = iota
	// TapRx: a device delivered the frame to a stack; on the mcnt fabric,
	// a DIMM endpoint delivered an in-order data frame to its stream.
	TapRx
	// TapLoop: a locally addressed packet took the stack's loopback path.
	TapLoop
	// TapChanPush: the host driver's T3 landed the frame in a DIMM's SRAM
	// RX ring.
	TapChanPush
	// TapDimmPop: the DIMM driver's IRQ drain popped it back out. The
	// window between push and pop is the channel occupancy.
	TapDimmPop
	// TapDimmPush: the DIMM driver's T3 landed the frame in its SRAM TX
	// ring.
	TapDimmPush
	// TapHostPop: the host's drain (polled, ALERT_N or MCN-DMA) popped it
	// back out.
	TapHostPop
	// TapDMATx: a NIC's TX engine began fetching the frame from memory.
	TapDMATx
	// TapWireStart: the frame's first bit went onto the wire.
	TapWireStart
	// TapWireEnd: the peer NIC received the whole frame.
	TapWireEnd
	// TapDMARx: the receiving NIC's DMA into its RX ring completed.
	TapDMARx
)

var tapSiteNames = [...]string{
	"tx", "rx", "lo", "push", "pop", "dimm-push", "host-pop",
	"dma-tx", "wire-start", "wire-end", "dma-rx",
}

// String returns the site's short tcpdump-style name: "tx", "rx", "lo",
// "push", "pop", "dimm-push", "host-pop", "dma-tx", "wire-start",
// "wire-end" or "dma-rx".
func (s TapSite) String() string {
	if int(s) < len(tapSiteNames) {
		return tapSiteNames[s]
	}
	return "?"
}

// Tap observes raw Ethernet frames: at a stack's device boundary (Stack.Tap,
// the tcpdump attachment point), on the MCN SRAM channel (the core drivers'
// ChanTap), inside a conventional NIC (ethdev.NIC.Tap) and on the mcnt
// fabric (Fabric.SetTap). Loopback packets carry a synthesized Ethernet
// header so they render like any other frame. A tap runs at the instant of
// the event, must charge no simulated time, and must copy any bytes it
// keeps.
type Tap interface {
	Frame(at sim.Time, site TapSite, dev string, frame []byte)
}

// Taps fans each frame out to several taps, in order.
type Taps []Tap

// Frame implements Tap.
func (ts Taps) Frame(at sim.Time, site TapSite, dev string, frame []byte) {
	for _, t := range ts {
		t.Frame(at, site, dev, frame)
	}
}

// NetDev is a network device (a 10GbE NIC, an MCN virtual interface, or the
// loopback). Transmit may block briefly (ring full == NETDEV_TX_BUSY with
// requeue) but must eventually accept the frame. Its step form carries the
// stack's own packets.
type NetDev interface {
	Name() string
	MAC() MAC
	MTU() int
	Features() Features
	Transmit(p *sim.Proc, f Frame)
	StepDev
}

// StepDev is a device's transmit path as steps of the caller's charge
// sequence, so a packet goes from the transport through IP into the
// device with one park of the sending process. TransmitSteps is called
// at the instant Transmit would have been, for the pooled frame q.Buf
// with q.N its TSO segment size (0 for none): it appends the charges and
// waits Transmit makes, and hooks that hand the frame over at the instant
// Transmit would have returned. N is the device's from then on.
type StepDev interface {
	TransmitSteps(q *cpu.Seq)
}

// ProtoCosts is the per-operation CPU cost table of the protocol stack.
type ProtoCosts struct {
	IPTxCycles            int64 // ip_output per packet
	IPRxCycles            int64 // ip_rcv per packet
	TCPTxCycles           int64 // tcp_sendmsg per segment (excl. copy/csum)
	TCPRxCycles           int64 // tcp_rcv per segment
	UDPCycles             int64 // per datagram, each direction
	ICMPCycles            int64 // per message
	SocketCycles          int64 // syscall + socket lock per user call
	ChecksumBytesPerCycle int64 // csum loop throughput
	CopyBytesPerCycle     int64 // kernel memcpy throughput (fallback)
}

// DefaultProtoCosts returns costs calibrated against Linux kernel 4.x
// profiles (the paper's software stack).
func DefaultProtoCosts() ProtoCosts {
	return ProtoCosts{
		IPTxCycles:            600,
		IPRxCycles:            700,
		TCPTxCycles:           2600,
		TCPRxCycles:           3200,
		UDPCycles:             1200,
		ICMPCycles:            900,
		SocketCycles:          800,
		ChecksumBytesPerCycle: 4,
		CopyBytesPerCycle:     8,
	}
}

// Stack is one node's network stack.
type Stack struct {
	K     *sim.Kernel
	CPU   *cpu.CPU
	Host  string
	Costs ProtoCosts
	// ChecksumBypass disables charging for checksum generation and
	// verification (MCN optimization mcn2: the memory channel is ECC/CRC
	// protected, Sec. IV-A). Checksums are still computed functionally.
	ChecksumBypass bool
	// Copy moves a bulk user/kernel copy of bytes through the node's
	// memory system as a callback chain that calls done when it retires;
	// the charge sequence holds a core around it. nil falls back to
	// CopyBytesPerCycle.
	Copy func(bytes int, done func())
	// Tap, when set, observes every frame entering or leaving the stack
	// (a tcpdump attachment point; see obs.Recorder).
	Tap Tap
	// Bridge, when set, inspects frames arriving on a device before
	// normal delivery; returning true consumes the frame. The MCN host
	// driver uses it to bridge frames arriving on the conventional NIC
	// toward its DIMMs (the cross-host scenario of Sec. III-B).
	Bridge func(p *sim.Proc, dev NetDev, frame []byte) bool

	ifaces  []*Iface
	pool    *framePool // see SharePool
	discard []byte     // see DiscardBuf
	txPkts  []*txPkt   // idle packet chains, each direction
	rxPkts  []*rxPkt

	// Transport state.
	conns     map[fourTuple]*TCPConn
	listeners map[uint16]*Listener
	udpSocks  map[uint16]*UDPSocket
	nextPort  uint16
	ipID      uint16

	echoID      uint16
	echoWaiters map[uint32]*echoWaiter
	frags       map[fragKey]*fragBuf
	arpCache    map[IP]arpEntry
	arpWait     map[IP]*sim.Signal

	// Stats.
	IPTx, IPRx  stats.Counter
	Drops       int64
	ARPRequests int64
	ARPReplies  int64
}

type echoWaiter struct {
	sig  *sim.Signal
	done bool
}

// framePool recycles frame buffers in size-class free lists. The kernel
// guarantees exactly one goroutine executes at any instant, so the lists
// need no synchronization, even when the stacks of one server share them.
// Buffers are handed out with stale contents; every Get caller overwrites
// all n bytes.
type framePool struct {
	class [6][][]byte
}

// Frame size-class upper bounds: pure ACK/control segments, standard
// Ethernet MTU frames, jumbo frames, the MCN drivers' 32KB TSO chunks, the
// largest TSO chunk or GRO frame (a 64KB IPv4 packet and its headers), and
// unbounded.
var frameClassCap = [...]int{128, 2048, 16 << 10, 33 << 10, 66 << 10}

func frameClass(n int) int {
	for c, max := range frameClassCap {
		if n <= max {
			return c
		}
	}
	return len(frameClassCap)
}

// GetFrameBuf returns an n-byte buffer from the pool (or a fresh one).
// Contents are stale: the caller must overwrite every byte.
func (s *Stack) GetFrameBuf(n int) []byte {
	c := frameClass(n)
	list := s.pool.class[c]
	if ln := len(list); ln > 0 {
		b := list[ln-1]
		list[ln-1] = nil
		s.pool.class[c] = list[:ln-1]
		if cap(b) >= n {
			return b[:n]
		}
		// Only the unbounded class can hold an undersized buffer; let
		// the GC have it and allocate at the requested size.
	}
	if c < len(frameClassCap) {
		return make([]byte, n, frameClassCap[c])
	}
	return make([]byte, n)
}

// RecycleFrameBuf returns a frame buffer to the pool. The caller must be
// the buffer's unique owner: nothing may hold a slice of it afterwards.
func (s *Stack) RecycleFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := frameClass(cap(b))
	s.pool.class[c] = append(s.pool.class[c], b)
}

// SharePool makes s take frame buffers from, and recycle them into, the
// pool of with. Stacks whose frames end in each other's pools share one:
// an MCN server's frames are allocated by the stack that sends them and
// recycled by the stack that receives them, so with a pool per stack the
// senders' pools would drain and the receivers' grow.
func (s *Stack) SharePool(with *Stack) { s.pool = with.pool }

// DiscardBuf returns the stack's 64KB sink for received bytes that are
// thrown away (RecvN, RecvAll); nothing reads it back. It is per stack
// so worlds simulated on parallel goroutines never share it.
func (s *Stack) DiscardBuf() []byte {
	if s.discard == nil {
		s.discard = make([]byte, 64<<10)
	}
	return s.discard
}

// NewStack creates a stack on the given CPU.
func NewStack(k *sim.Kernel, c *cpu.CPU, host string, costs ProtoCosts) *Stack {
	return &Stack{
		K: k, CPU: c, Host: host, Costs: costs,
		pool:        new(framePool),
		conns:       make(map[fourTuple]*TCPConn),
		listeners:   make(map[uint16]*Listener),
		udpSocks:    make(map[uint16]*UDPSocket),
		nextPort:    33000,
		echoWaiters: make(map[uint32]*echoWaiter),
	}
}

// Iface is a configured network interface: device + IP + mask + neighbor
// table.
type Iface struct {
	Stack *Stack
	Dev   NetDev
	IP    IP
	Mask  IP
	// Peer, when set, makes this a point-to-point interface: packets for
	// exactly that address route here. The host-side MCN interfaces use
	// this (one virtual interface per MCN node, Sec. III-B).
	Peer    IP
	HasPeer bool
	// Neighbors is the resolved IP-to-MAC table (ARP is modeled as
	// pre-resolved; see DESIGN.md deviations).
	Neighbors map[IP]MAC
	// Gateway is the fallback next-hop MAC for addresses not in
	// Neighbors (used by MCN-side interfaces whose mask forwards
	// everything to the host, and for off-subnet traffic).
	Gateway    MAC
	HasGateway bool
}

// AddIface attaches a device with an address; it returns the Iface for
// neighbor configuration.
func (s *Stack) AddIface(dev NetDev, ip, mask IP) *Iface {
	ifc := &Iface{Stack: s, Dev: dev, IP: ip, Mask: mask, Neighbors: make(map[IP]MAC)}
	s.ifaces = append(s.ifaces, ifc)
	return ifc
}

// Ifaces returns the configured interfaces in attach order.
func (s *Stack) Ifaces() []*Iface { return s.ifaces }

// IfaceByIP returns the interface holding the given address.
func (s *Stack) IfaceByIP(ip IP) *Iface {
	for _, ifc := range s.ifaces {
		if ifc.IP == ip {
			return ifc
		}
	}
	return nil
}

// isLocal reports whether dst terminates at this stack (loopback or any
// interface address). The kernel checks loopback before enumerating other
// interfaces (Sec. III-B).
func (s *Stack) isLocal(dst IP) bool {
	if dst.IsLoopback() {
		return true
	}
	return s.IfaceByIP(dst) != nil
}

// route picks the output interface for dst following the paper's rules: a
// packet is forwarded to an interface iff dst&mask == ip&mask; the
// MCN-side interface's 0.0.0.0 mask therefore matches everything.
func (s *Stack) route(dst IP) (*Iface, error) {
	for _, ifc := range s.ifaces {
		if ifc.HasPeer && dst == ifc.Peer {
			return ifc, nil
		}
		if !ifc.HasPeer && dst.Mask(ifc.Mask) == ifc.IP.Mask(ifc.Mask) {
			return ifc, nil
		}
	}
	return nil, fmt.Errorf("netstack(%s): no route to %v", s.Host, dst)
}

// chargeChecksum charges the cycle cost of checksumming n bytes unless the
// stack runs with checksum bypass.
func (s *Stack) chargeChecksum(p *sim.Proc, n int) {
	if s.ChecksumBypass || n <= 0 {
		return
	}
	s.CPU.Exec(p, int64(n)/s.Costs.ChecksumBytesPerCycle+1)
}

// checksumStep appends chargeChecksum's charge to a charge sequence,
// unless dev (when not nil) offloads checksums in hardware.
func (s *Stack) checksumStep(q *cpu.Seq, n int, dev NetDev) {
	if s.ChecksumBypass || n <= 0 || (dev != nil && dev.Features().HWChecksum) {
		return
	}
	q.Exec(int64(n)/s.Costs.ChecksumBytesPerCycle + 1)
}

// chargeCopy charges a bulk data copy.
func (s *Stack) chargeCopy(p *sim.Proc, n int) { s.CopyStep(s.CPU.Seq(), n).Run(p) }

// CopyStep appends a bulk copy of n bytes to a charge sequence: the
// node's Copy chain with a core held, or CopyBytesPerCycle without one.
// Copying nothing appends nothing.
func (s *Stack) CopyStep(q *cpu.Seq, n int) *cpu.Seq {
	if n <= 0 {
		return q
	}
	if s.Copy != nil {
		return q.While(s.Copy, n)
	}
	return q.Exec(int64(n)/s.Costs.CopyBytesPerCycle + 1)
}

// frameHeadroom is the room a transmit frame keeps ahead of its transport
// bytes for the Ethernet and IPv4 headers sendFrame writes.
const frameHeadroom = EthHeaderBytes + IPv4HeaderBytes

// getTxFrame returns a pool frame with n transport bytes at frameHeadroom.
func (s *Stack) getTxFrame(n int) []byte { return s.GetFrameBuf(frameHeadroom + n) }

// sendIP copies payload, which must already contain its transport header,
// into a pool frame and sends it as one IP packet.
func (s *Stack) sendIP(p *sim.Proc, proto uint8, src, dst IP, payload []byte) error {
	frame := s.getTxFrame(len(payload))
	copy(frame[frameHeadroom:], payload)
	return s.sendFrame(p, proto, src, dst, frame, 0)
}

// sendFrame transmits one IP packet (or TSO chunk) whose transport bytes,
// header included, sit in frame[frameHeadroom:]; it writes the IPv4 and
// Ethernet headers in place. frame must come from getTxFrame, and
// sendFrame takes ownership of it. The IP charges and the device's
// transmit steps run as one chain.
func (s *Stack) sendFrame(p *sim.Proc, proto uint8, src, dst IP, frame []byte, tsoSeg int) error {
	t := s.getTx(proto, src, dst, frame, tsoSeg)
	s.CPU.Seq().Hook(t.ip).Run(p)
	return t.finish(p)
}

// A txPkt is one IP packet on its way from a transport through IP to a
// device as one charge sequence. Its hooks run the code sendFrame's
// process form ran between its charges, at the same instants. What the
// chain does not carry — an unresolved neighbour (ARP waits) or a
// datagram that fragments — ends it, and finish runs the rest in the
// process from the same instant. txPkts are pooled per stack and their
// hooks bound once, so a packet's chain allocates nothing.
type txPkt struct {
	s        *Stack
	proto    uint8
	src, dst IP
	frame    []byte // a control segment's hook takes it from the pool
	tsoSeg   int

	// A TCP segment, whose header onTCP writes when the transport
	// charges retire. liveAck takes the ack from the connection then
	// (data segments); otherwise ack was read when the segment was sent.
	c        *TCPConn
	flags    uint8
	seq, ack uint32
	liveAck  bool

	ifc  *Iface // nil for local delivery
	mac  MAC
	id   uint16
	rest txRest
	err  error
	// bound once: onTCP, onIP, onOut
	tcp, ip, out func(*cpu.Seq)
}

// txRest is what a packet's process does once its chain has ended.
type txRest uint8

const (
	txDone txRest = iota
	txARP         // resolve the next hop, then the IP charges and the rest
	txFrag        // send the datagram as fragments
)

// getTx returns an idle packet chain of s for frame.
func (s *Stack) getTx(proto uint8, src, dst IP, frame []byte, tsoSeg int) *txPkt {
	var t *txPkt
	if n := len(s.txPkts); n > 0 {
		t = s.txPkts[n-1]
		s.txPkts = s.txPkts[:n-1]
	} else {
		t = &txPkt{s: s}
		t.tcp, t.ip, t.out = t.onTCP, t.onIP, t.onOut
	}
	t.proto, t.src, t.dst, t.frame, t.tsoSeg = proto, src, dst, frame, tsoSeg
	return t
}

// onIP runs when the packet reaches IP: the loopback or the route and the
// next hop, then the IP charges.
func (t *txPkt) onIP(q *cpu.Seq) {
	s := t.s
	if n := IPv4HeaderBytes + len(t.frame) - frameHeadroom; n > 65535 {
		panic(fmt.Sprintf("netstack(%s): packet of %d bytes exceeds the IPv4 length field", s.Host, n))
	}
	// Local delivery short-circuits through the loopback path.
	if s.isLocal(t.dst) {
		q.Exec(s.Costs.IPTxCycles).Hook(t.out)
		return
	}
	ifc, err := s.route(t.dst)
	if err != nil {
		s.RecycleFrameBuf(t.frame)
		t.err = err
		return
	}
	if t.src.IsZero() {
		t.src = ifc.IP
	}
	t.ifc = ifc
	mac, ok := ifc.neighbour(t.dst)
	if !ok {
		t.rest = txARP
		return
	}
	t.mac = mac
	t.ipCharges(q)
}

// ipCharges appends ip_output's charges and the hook that follows them.
func (t *txPkt) ipCharges(q *cpu.Seq) {
	q.Exec(t.s.Costs.IPTxCycles)
	t.s.checksumStep(q, IPv4HeaderBytes, nil)
	q.Hook(t.out)
}

// onOut runs when the IP charges retire: it writes the headers and hands
// the frame to the loopback or the device.
func (t *txPkt) onOut(q *cpu.Seq) {
	s, frame := t.s, t.frame
	s.ipID++
	if t.ifc == nil {
		// Delivery is asynchronous (a softirq in Linux): delivering
		// inline would run the receive path in the middle of the
		// sender's critical section.
		pkt := frame[EthHeaderBytes:]
		PutIPv4(pkt, IPv4Header{TotalLen: uint16(len(pkt)), ID: s.ipID, TTL: 64, Proto: t.proto, Src: t.src, Dst: t.dst})
		s.IPTx.Add(s.K.Now(), int64(len(pkt)))
		if s.Tap != nil {
			// Loopback capture: synthesize an Ethernet header so the
			// frame renders like any other.
			PutEth(frame, EthHeader{Type: EtherTypeIPv4})
			s.Tap.Frame(s.K.Now(), TapLoop, "lo", frame)
		}
		s.K.Go(s.Host+"/lo-rx", func(rp *sim.Proc) {
			s.deliverIP(rp, pkt)
			// The receive path copies what it keeps (rcvBuf, frag
			// buffers, app buffers), so the packet dies here.
			s.RecycleFrameBuf(frame)
		})
		return
	}
	ifc, payload := t.ifc, frame[frameHeadroom:]
	// Datagrams larger than the MTU fragment (TCP never takes this path:
	// segments fit the MSS and TSO frames are segmented by the device).
	if t.tsoSeg == 0 && IPv4HeaderBytes+len(payload) > ifc.Dev.MTU() {
		t.id, t.rest = s.ipID, txFrag
		return
	}
	PutEth(frame, EthHeader{Dst: t.mac, Src: ifc.Dev.MAC(), Type: EtherTypeIPv4})
	PutIPv4(frame[EthHeaderBytes:], IPv4Header{
		TotalLen: uint16(IPv4HeaderBytes + len(payload)),
		ID:       s.ipID, TTL: 64, Proto: t.proto, Src: t.src, Dst: t.dst,
		DF: t.proto == ProtoTCP,
	})
	s.IPTx.Add(s.K.Now(), int64(len(frame)))
	if s.Tap != nil {
		s.Tap.Frame(s.K.Now(), TapTx, ifc.Dev.Name(), frame)
	}
	q.Buf, q.N = frame, t.tsoSeg
	ifc.Dev.TransmitSteps(q)
}

// finish runs in the process once the packet's chain has ended: what the
// chain left it, then the chain goes back to the pool. It returns the
// routing or resolution error, if any.
func (t *txPkt) finish(p *sim.Proc) error {
	s := t.s
	if t.rest == txARP {
		t.rest = txDone
		if t.mac, t.err = t.ifc.ResolveMAC(p, t.dst); t.err != nil {
			s.RecycleFrameBuf(t.frame)
		} else {
			q := s.CPU.Seq()
			t.ipCharges(q)
			q.Run(p)
		}
	}
	if t.rest == txFrag {
		s.sendFragmented(p, t.proto, t.src, t.dst, t.frame[frameHeadroom:], t.ifc, t.mac, t.id)
		s.RecycleFrameBuf(t.frame)
	}
	err := t.err
	*t = txPkt{s: s, tcp: t.tcp, ip: t.ip, out: t.out}
	s.txPkts = append(s.txPkts, t)
	return err
}

// RxFrame is called by a device's receive path with a full Ethernet frame.
func (s *Stack) RxFrame(p *sim.Proc, dev NetDev, frame []byte) {
	if s.Tap != nil {
		s.Tap.Frame(s.K.Now(), TapRx, dev.Name(), frame)
	}
	if s.Bridge != nil && s.Bridge(p, dev, frame) {
		return
	}
	eth, ok := ParseEth(frame)
	if !ok {
		s.Drops++
		return
	}
	if eth.Dst != dev.MAC() && !eth.Dst.IsBroadcast() {
		s.Drops++
		return
	}
	switch eth.Type {
	case EtherTypeIPv4:
		s.deliverIP(p, frame[EthHeaderBytes:])
	case EtherTypeARP:
		s.rxARP(p, dev, frame[EthHeaderBytes:])
	default:
		s.Drops++
	}
}

// deliverIP runs the IP receive path and dispatches to the transport.
// The IP charges and, for a segment of an open connection, its checksum
// charge, the socket lock and the TCP input charge run as one chain; the
// transport then runs in the process.
func (s *Stack) deliverIP(p *sim.Proc, pkt []byte) {
	hdr, ok := ParseIPv4(pkt)
	if !ok || int(hdr.TotalLen) > len(pkt) {
		s.Drops++
		return
	}
	r := s.getRx()
	r.hdr, r.pkt = hdr, pkt[:hdr.TotalLen]
	q := s.CPU.Seq().Exec(s.Costs.IPRxCycles)
	s.checksumStep(q, IPv4HeaderBytes, nil)
	q.Hook(r.in).Run(p)
	body, th, c := r.body, r.th, r.c
	*r = rxPkt{s: s, in: r.in}
	s.rxPkts = append(s.rxPkts, r)
	switch {
	case body == nil: // dropped, or an incomplete datagram
	case c != nil:
		c.segArrives(p, th, body[TCPHeaderBytes:])
	case hdr.Proto == ProtoTCP:
		s.rxTCPNoConn(p, hdr, th)
	case hdr.Proto == ProtoICMP:
		s.rxICMP(p, hdr, body)
	case hdr.Proto == ProtoUDP:
		s.rxUDP(p, hdr, body)
	default:
		s.Drops++
	}
}

// An rxPkt is one IP packet on its way up through deliverIP's chain:
// pooled per stack, its hook bound once.
type rxPkt struct {
	s   *Stack
	hdr IPv4Header
	pkt []byte
	// Set by the chain: the transport bytes, nil when the packet was
	// dropped or completed no datagram; a TCP segment's header, and its
	// connection, whose socket lock the chain took.
	body []byte
	th   TCPHeader
	c    *TCPConn
	in   func(*cpu.Seq) // onIn, bound once
}

// getRx returns an idle receive chain of s.
func (s *Stack) getRx() *rxPkt {
	if n := len(s.rxPkts); n > 0 {
		r := s.rxPkts[n-1]
		s.rxPkts = s.rxPkts[:n-1]
		return r
	}
	r := &rxPkt{s: s}
	r.in = r.onIn
	return r
}

// onIn runs when the IP receive charges retire.
func (r *rxPkt) onIn(q *cpu.Seq) {
	s, hdr, pkt := r.s, r.hdr, r.pkt
	if !VerifyIPv4Checksum(pkt) || !s.isLocal(hdr.Dst) {
		// This stack does not forward at the IP layer; MCN forwarding
		// happens in the driver below (F1-F4).
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
	r.body = body
	if hdr.Proto == ProtoTCP {
		s.rxTCP(q, r)
	}
}

// Ping sends one ICMP echo request with payloadLen bytes and waits for the
// reply, returning the round-trip time. ok=false on timeout.
func (s *Stack) Ping(p *sim.Proc, dst IP, payloadLen int, timeout sim.Duration) (sim.Duration, bool) {
	s.CPU.Exec(p, s.Costs.SocketCycles+s.Costs.ICMPCycles)
	s.echoID++
	id, seq := s.echoID, uint16(1)
	key := uint32(id)<<16 | uint32(seq)
	w := &echoWaiter{sig: s.K.NewSignal()}
	s.echoWaiters[key] = w
	defer delete(s.echoWaiters, key)

	msg := make([]byte, ICMPHeaderBytes+payloadLen)
	for i := 0; i < payloadLen; i++ {
		msg[ICMPHeaderBytes+i] = byte(i)
	}
	PutICMPEcho(msg, ICMPEcho{Type: ICMPEchoRequest, ID: id, Seq: seq}, payloadLen)
	s.chargeChecksum(p, len(msg))
	start := p.Now()
	if err := s.sendIP(p, ProtoICMP, IP{}, dst, msg); err != nil {
		return 0, false
	}
	for !w.done {
		if !w.sig.WaitTimeout(p, timeout) {
			return 0, false
		}
	}
	return p.Now().Sub(start), true
}

func (s *Stack) rxICMP(p *sim.Proc, hdr IPv4Header, body []byte) {
	m, ok := ParseICMPEcho(body)
	if !ok {
		s.Drops++
		return
	}
	s.CPU.Exec(p, s.Costs.ICMPCycles)
	s.chargeChecksum(p, len(body))
	switch m.Type {
	case ICMPEchoRequest:
		// Reply with the same payload, swapped addresses.
		reply := make([]byte, len(body))
		copy(reply, body)
		PutICMPEcho(reply, ICMPEcho{Type: ICMPEchoReply, ID: m.ID, Seq: m.Seq}, len(body)-ICMPHeaderBytes)
		s.chargeChecksum(p, len(reply))
		dst := hdr.Src
		s.K.Go(s.Host+"/icmp-reply", func(rp *sim.Proc) {
			_ = s.sendIP(rp, ProtoICMP, hdr.Dst, dst, reply)
		})
	case ICMPEchoReply:
		key := uint32(m.ID)<<16 | uint32(m.Seq)
		if w, ok := s.echoWaiters[key]; ok {
			w.done = true
			w.sig.Notify()
		}
	}
}

// allocPort returns an unused ephemeral port.
func (s *Stack) allocPort() uint16 {
	for {
		s.nextPort++
		if s.nextPort < 33000 {
			s.nextPort = 33000
		}
		port := s.nextPort
		if _, ok := s.listeners[port]; ok {
			continue
		}
		if _, ok := s.udpSocks[port]; ok {
			continue
		}
		inUse := false
		for t := range s.conns {
			if t.lport == port {
				inUse = true
				break
			}
		}
		if !inUse {
			return port
		}
	}
}
