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
	// ConsumesTxFrame: Transmit (or its queued continuation) copies the
	// frame bytes out — into an SRAM ring, for the MCN drivers — and
	// never aliases them afterwards. The stack then allocates TX frames
	// from its recycling pool and the device returns them when done.
	ConsumesTxFrame bool
}

// Frame is what the stack hands a device: the wire bytes plus offload
// metadata.
type Frame struct {
	Data []byte
	// TSOSegSize is nonzero when Data carries one jumbo TCP chunk that
	// the device must segment into MSS-sized wire packets.
	TSOSegSize int
	// Pooled transfers ownership of Data: a device that consumes the
	// frame must hand the buffer back via Stack.RecycleFrameBuf once the
	// bytes are copied out (or the frame is dropped). Devices that alias
	// frames (the conventional NIC path) never see Pooled frames.
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
)

var tapSiteNames = [...]string{"tx", "rx", "lo", "push", "pop"}

// String returns the site's short tcpdump-style name ("tx", "rx", "lo",
// "push", "pop").
func (s TapSite) String() string {
	if int(s) < len(tapSiteNames) {
		return tapSiteNames[s]
	}
	return "?"
}

// Tap observes raw Ethernet frames: at a stack's device boundary (Stack.Tap,
// the tcpdump attachment point), on the MCN SRAM channel (the core drivers'
// ChanTap) and on the mcnt fabric (Fabric.SetTap). Loopback packets carry
// a synthesized Ethernet header so they render like any other frame. A tap
// runs at the instant of the event, must charge no simulated time, and
// must copy any bytes it keeps.
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
// requeue) but must eventually accept the frame.
type NetDev interface {
	Name() string
	MAC() MAC
	MTU() int
	Features() Features
	Transmit(p *sim.Proc, f Frame)
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
	// Copy charges a bulk user/kernel copy; nodes override it to run the
	// copy through their memory system. nil falls back to
	// CopyBytesPerCycle.
	Copy func(p *sim.Proc, bytes int)
	// Tap, when set, observes every frame entering or leaving the stack
	// (a tcpdump attachment point; see obs.Recorder).
	Tap Tap
	// Bridge, when set, inspects frames arriving on a device before
	// normal delivery; returning true consumes the frame. The MCN host
	// driver uses it to bridge frames arriving on the conventional NIC
	// toward its DIMMs (the cross-host scenario of Sec. III-B).
	Bridge func(p *sim.Proc, dev NetDev, frame []byte) bool

	ifaces  []*Iface
	pool    framePool
	discard []byte // see DiscardBuf

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
// need no synchronization. Buffers are handed out with stale contents;
// every Get caller overwrites all n bytes.
type framePool struct {
	class [4][][]byte
}

// Frame size-class upper bounds: pure ACK/control segments, standard
// Ethernet MTU frames, jumbo frames, and unbounded (TSO chunks).
const (
	frameClassSmall = 128
	frameClassMTU   = 2048
	frameClassJumbo = 16 << 10
)

func frameClass(n int) int {
	switch {
	case n <= frameClassSmall:
		return 0
	case n <= frameClassMTU:
		return 1
	case n <= frameClassJumbo:
		return 2
	default:
		return 3
	}
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
	switch c {
	case 0:
		return make([]byte, n, frameClassSmall)
	case 1:
		return make([]byte, n, frameClassMTU)
	case 2:
		return make([]byte, n, frameClassJumbo)
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

// resolveMAC is ResolveMAC (arp.go); the indirection keeps the old name
// alive for the routing tests.
func (ifc *Iface) resolveMAC(p *sim.Proc, dst IP) (MAC, error) {
	return ifc.ResolveMAC(p, dst)
}

// chargeChecksum charges the cycle cost of checksumming n bytes unless the
// stack runs with checksum bypass.
func (s *Stack) chargeChecksum(p *sim.Proc, n int) {
	if s.ChecksumBypass || n <= 0 {
		return
	}
	s.CPU.Exec(p, int64(n)/s.Costs.ChecksumBytesPerCycle+1)
}

// chargeChecksumOn is chargeChecksum unless the device offloads checksums
// in hardware.
func (s *Stack) chargeChecksumOn(p *sim.Proc, n int, dev NetDev) {
	if dev != nil && dev.Features().HWChecksum {
		return
	}
	s.chargeChecksum(p, n)
}

// chargeCopy charges a bulk data copy.
func (s *Stack) chargeCopy(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	if s.Copy != nil {
		s.Copy(p, n)
		return
	}
	s.CPU.Exec(p, int64(n)/s.Costs.CopyBytesPerCycle+1)
}

// sendIP builds and transmits one IP packet (or TSO chunk) with the given
// transport payload. The payload must already contain its transport header.
func (s *Stack) sendIP(p *sim.Proc, proto uint8, src, dst IP, payload []byte, tsoSeg int) error {
	if IPv4HeaderBytes+len(payload) > 65535 {
		panic(fmt.Sprintf("netstack(%s): packet of %d bytes exceeds the IPv4 length field", s.Host, IPv4HeaderBytes+len(payload)))
	}
	// Local delivery short-circuits through the loopback path. Delivery
	// is asynchronous (a softirq in Linux): delivering inline would run
	// the receive path in the middle of the sender's critical section.
	if s.isLocal(dst) {
		s.CPU.Exec(p, s.Costs.IPTxCycles)
		pkt := s.GetFrameBuf(IPv4HeaderBytes + len(payload))
		s.ipID++
		PutIPv4(pkt, IPv4Header{TotalLen: uint16(len(pkt)), ID: s.ipID, TTL: 64, Proto: proto, Src: src, Dst: dst})
		copy(pkt[IPv4HeaderBytes:], payload)
		s.IPTx.Add(s.K.Now(), int64(len(pkt)))
		if s.Tap != nil {
			// Loopback capture: synthesize an Ethernet header so the
			// frame renders like any other.
			frame := make([]byte, EthHeaderBytes+len(pkt))
			PutEth(frame, EthHeader{Type: EtherTypeIPv4})
			copy(frame[EthHeaderBytes:], pkt)
			s.Tap.Frame(s.K.Now(), TapLoop, "lo", frame)
		}
		s.K.Go(s.Host+"/lo-rx", func(rp *sim.Proc) {
			s.deliverIP(rp, pkt)
			// The receive path copies what it keeps (rcvBuf, frag
			// buffers, app buffers), so the packet dies here.
			s.RecycleFrameBuf(pkt)
		})
		return nil
	}

	ifc, err := s.route(dst)
	if err != nil {
		return err
	}
	if src.IsZero() {
		src = ifc.IP
	}
	dstMAC, err := ifc.resolveMAC(p, dst)
	if err != nil {
		return err
	}
	s.CPU.Exec(p, s.Costs.IPTxCycles)
	s.chargeChecksum(p, IPv4HeaderBytes)
	s.ipID++

	// Datagrams larger than the MTU fragment (TCP never takes this path:
	// segments fit the MSS and TSO frames are segmented by the device).
	if tsoSeg == 0 && IPv4HeaderBytes+len(payload) > ifc.Dev.MTU() {
		s.sendFragmented(p, proto, src, dst, payload, ifc, dstMAC, s.ipID)
		return nil
	}

	// Devices that consume TX frames (the MCN drivers copy them into an
	// SRAM ring) take pooled buffers and recycle them; aliasing devices
	// (the conventional NIC hands the same bytes to the receiver) get
	// garbage-collected ones.
	pooled := ifc.Dev.Features().ConsumesTxFrame
	size := EthHeaderBytes + IPv4HeaderBytes + len(payload)
	var frame []byte
	if pooled {
		frame = s.GetFrameBuf(size)
	} else {
		frame = make([]byte, size)
	}
	PutEth(frame, EthHeader{Dst: dstMAC, Src: ifc.Dev.MAC(), Type: EtherTypeIPv4})
	PutIPv4(frame[EthHeaderBytes:], IPv4Header{
		TotalLen: uint16(IPv4HeaderBytes + len(payload)),
		ID:       s.ipID, TTL: 64, Proto: proto, Src: src, Dst: dst,
		DF: proto == ProtoTCP,
	})
	copy(frame[EthHeaderBytes+IPv4HeaderBytes:], payload)
	s.IPTx.Add(s.K.Now(), int64(len(frame)))
	if s.Tap != nil {
		s.Tap.Frame(s.K.Now(), TapTx, ifc.Dev.Name(), frame)
	}
	ifc.Dev.Transmit(p, Frame{Data: frame, TSOSegSize: tsoSeg, Pooled: pooled})
	return nil
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
func (s *Stack) deliverIP(p *sim.Proc, pkt []byte) {
	hdr, ok := ParseIPv4(pkt)
	if !ok || int(hdr.TotalLen) > len(pkt) {
		s.Drops++
		return
	}
	pkt = pkt[:hdr.TotalLen]
	s.CPU.Exec(p, s.Costs.IPRxCycles)
	s.chargeChecksum(p, IPv4HeaderBytes)
	if !VerifyIPv4Checksum(pkt) {
		s.Drops++
		return
	}
	if !s.isLocal(hdr.Dst) {
		// This stack does not forward at the IP layer; MCN forwarding
		// happens in the driver below (F1-F4).
		s.Drops++
		return
	}
	s.IPRx.Add(s.K.Now(), int64(len(pkt)))
	body := pkt[IPv4HeaderBytes:]
	if hdr.MF || hdr.FragOff > 0 {
		body = s.reassemble(hdr, body)
		if body == nil {
			return // incomplete datagram
		}
	}
	switch hdr.Proto {
	case ProtoICMP:
		s.rxICMP(p, hdr, body)
	case ProtoTCP:
		s.rxTCP(p, hdr, body)
	case ProtoUDP:
		s.rxUDP(p, hdr, body)
	default:
		s.Drops++
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
	if err := s.sendIP(p, ProtoICMP, IP{}, dst, msg, 0); err != nil {
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
			_ = s.sendIP(rp, ProtoICMP, hdr.Dst, dst, reply, 0)
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
