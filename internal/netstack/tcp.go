package netstack

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// TCP implementation: sliding window with real sequence numbers, slow
// start and AIMD congestion avoidance, delayed ACKs, retransmission timeout
// with go-back-N recovery, triple-duplicate-ACK fast retransmit, and TSO.
// Out-of-order segments are queued and reassembled.

type fourTuple struct {
	lip, rip     IP
	lport, rport uint16
}

func (t fourTuple) String() string {
	return fmt.Sprintf("%v:%d-%v:%d", t.lip, t.lport, t.rip, t.rport)
}

func (t fourTuple) reversed() fourTuple {
	return fourTuple{lip: t.rip, rip: t.lip, lport: t.rport, rport: t.lport}
}

type tcpState int

const (
	tcpClosed tcpState = iota
	tcpSynSent
	tcpSynRcvd
	tcpEstablished
	tcpFinWait1
	tcpFinWait2
	tcpCloseWait
	tcpLastAck
)

// TCP tuning constants.
const (
	tcpSndBufCap   = 1 << 20 // 1MB send buffer
	tcpRcvBufCap   = 1 << 20 // 1MB receive buffer
	tcpInitCwndMSS = 10      // Linux initial congestion window
	// tcpMaxTSOChunk bounds one offloaded chunk; IPv4's 16-bit total
	// length caps a packet at 65535 bytes including headers.
	tcpMaxTSOChunk  = 65535 - IPv4HeaderBytes - TCPHeaderBytes
	tcpDupAckThresh = 3
	tcpMinRTO       = 400 * sim.Microsecond
	tcpMaxRTO       = 200 * sim.Millisecond
	tcpDelayedAckNs = 200 * sim.Microsecond
	tcpAckEvery     = 2 // ack every 2nd full segment
)

// TCPConn is one TCP connection endpoint.
type TCPConn struct {
	s     *Stack
	tuple fourTuple
	ifc   *Iface
	state tcpState
	mss   int

	// Send state.
	sndBuf    ByteRing // bytes from sndUna onward (unacked + unsent)
	sndUna    uint32
	sndNxt    uint32 // next sequence to (re)transmit
	sndMax    uint32 // highest sequence ever transmitted
	cwnd      int
	ssthresh  int
	rwnd      uint32 // peer's advertised window
	dupAcks   int
	finQueued bool
	finSent   bool
	finEver   bool // a FIN has been transmitted at least once
	finAcked  bool

	// Receive state.
	rcvBuf  ByteRing
	rcvNxt  uint32
	ooo     map[uint32][]byte // out-of-order segments by seq
	gotFin  bool
	finSeq  uint32
	ackedUp uint32 // highest rcvNxt we have acked
	unacked int    // full segments received since last ack
	// lastAdvWnd is the receive window advertised in the most recent
	// segment we sent; when the application drains a closed window a
	// window-update ACK must be emitted or the peer stalls forever.
	lastAdvWnd uint32

	// RTT estimation.
	srtt     sim.Duration
	rttvar   sim.Duration
	rtSeq    uint32 // sequence being timed
	rtStart  sim.Time
	rtActive bool

	// acceptor holds the listener that spawned this connection until the
	// handshake completes.
	acceptor *Listener

	// rxLock is the socket lock of the receive path: segment processing
	// reads connection state, sleeps in copy/cycle charges, then writes
	// it back, so two deliveries for the same connection (e.g. loopback
	// packets in separate delivery contexts) must serialize or rcvNxt
	// and the buffers corrupt.
	rxLock *sim.Resource

	// Timers and wakeups.
	rto       *sim.Timer
	delack    *sim.Timer
	sendable  *sim.Signal // transmitter wakeups
	readable  *sim.Signal // reader wakeups
	writable  *sim.Signal // writer wakeups (buffer space)
	stateSig  *sim.Signal // connection state transitions
	transDone bool
	closed    bool
	closeErr  error

	// backoff counts consecutive retransmission timeouts; each one doubles
	// the next RTO (clamped at tcpMaxRTO) until a new ACK resets it.
	backoff int

	// Stats.
	BytesSent  stats.Counter
	BytesRcvd  stats.Counter
	SegsSent   int64
	SegsRcvd   int64
	AcksSent   int64
	Retransmit int64
	Timeouts   int64
}

func (s *Stack) newConn(t fourTuple, ifc *Iface) *TCPConn {
	c := &TCPConn{
		s: s, tuple: t, ifc: ifc,
		mss:      ifc.Dev.MTU() - IPv4HeaderBytes - TCPHeaderBytes,
		ooo:      make(map[uint32][]byte),
		sendable: s.K.NewSignal(),
		readable: s.K.NewSignal(),
		writable: s.K.NewSignal(),
		stateSig: s.K.NewSignal(),
		rwnd:     tcpRcvBufCap,
	}
	c.cwnd = tcpInitCwndMSS * c.mss
	c.ssthresh = tcpRcvBufCap
	c.rxLock = s.K.NewResource(1)
	c.rto = s.K.NewTimer(func() { c.onRTO() })
	c.delack = s.K.NewTimer(func() { c.onDelAckTimer() })
	s.conns[t] = c
	s.K.Go(s.Host+"/tcp-xmit/"+t.String(), c.transmitter)
	return c
}

// Listener accepts incoming connections on a port.
type Listener struct {
	s       *Stack
	port    uint16
	backlog *sim.Queue[*TCPConn]
}

// Listen starts accepting connections on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, ok := s.listeners[port]; ok {
		return nil, fmt.Errorf("netstack(%s): port %d already listening", s.Host, port)
	}
	l := &Listener{s: s, port: port, backlog: sim.NewQueue[*TCPConn](s.K, 0)}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection completes the handshake.
func (l *Listener) Accept(p *sim.Proc) (*TCPConn, error) {
	l.s.CPU.Exec(p, l.s.Costs.SocketCycles)
	c, ok := l.backlog.Get(p)
	if !ok {
		return nil, fmt.Errorf("netstack(%s): listener closed", l.s.Host)
	}
	return c, nil
}

// Close stops the listener.
func (l *Listener) Close() {
	delete(l.s.listeners, l.port)
	l.backlog.Close()
}

// Connect opens a connection to dst:port, blocking until established.
func (s *Stack) Connect(p *sim.Proc, dst IP, port uint16) (*TCPConn, error) {
	s.CPU.Exec(p, s.Costs.SocketCycles)
	var lip IP
	var ifc *Iface
	if s.isLocal(dst) {
		ifc = s.loopbackIface(dst)
		lip = dst
	} else {
		i, err := s.route(dst)
		if err != nil {
			return nil, err
		}
		ifc = i
		lip = i.IP
	}
	t := fourTuple{lip: lip, rip: dst, lport: s.allocPort(), rport: port}
	c := s.newConn(t, ifc)
	c.state = tcpSynSent
	c.sndUna, c.sndNxt = 1, 1
	c.sendSegment(p, TCPSyn, 1, 0)
	c.sndNxt = 2
	c.sndMax = 2
	c.rto.Reset(c.currentRTO())
	for c.state != tcpEstablished && !c.closed {
		c.stateSig.Wait(p)
	}
	if c.closed {
		return nil, fmt.Errorf("netstack(%s): connect to %v:%d failed: %v", s.Host, dst, port, c.closeErr)
	}
	return c, nil
}

// loopbackIface fabricates a local interface view for loopback
// connections.
func (s *Stack) loopbackIface(ip IP) *Iface {
	if ifc := s.IfaceByIP(ip); ifc != nil {
		return ifc
	}
	// Pure 127.x traffic: a virtual device with a jumbo MTU.
	return &Iface{Stack: s, Dev: loopDev{}, IP: Loopback, Mask: MaskAll}
}

type loopDev struct{}

func (loopDev) Name() string              { return "lo" }
func (loopDev) MAC() MAC                  { return MAC{} }
func (loopDev) MTU() int                  { return 65535 - TCPHeaderBytes }
func (loopDev) Features() Features        { return Features{} }
func (loopDev) Transmit(*sim.Proc, Frame) { panic("loopback frames are delivered in-stack") }

// Tuple returns the connection 4-tuple.
func (c *TCPConn) Tuple() (local IP, lport uint16, remote IP, rport uint16) {
	return c.tuple.lip, c.tuple.lport, c.tuple.rip, c.tuple.rport
}

// MSS returns the negotiated maximum segment size.
func (c *TCPConn) MSS() int { return c.mss }

// Send writes data to the connection, blocking for buffer space. It
// returns once all bytes are accepted into the send buffer.
func (c *TCPConn) Send(p *sim.Proc, data []byte) error {
	c.s.CPU.Exec(p, c.s.Costs.SocketCycles)
	for len(data) > 0 {
		if c.closed || c.finQueued {
			return fmt.Errorf("netstack(%s): send on closed connection", c.s.Host)
		}
		space := tcpSndBufCap - c.sndBuf.Len()
		if space == 0 {
			c.writable.Wait(p)
			continue
		}
		n := len(data)
		if n > space {
			n = space
		}
		// Copy user data into the kernel send buffer.
		c.s.chargeCopy(p, n)
		c.sndBuf.Write(data[:n])
		data = data[n:]
		c.sendable.Notify()
	}
	return nil
}

// zeroChunk is SendN's synthetic payload; nothing writes to it.
var zeroChunk = make([]byte, 64<<10)

// SendN sends n synthetic bytes (a convenience for traffic generators).
func (c *TCPConn) SendN(p *sim.Proc, n int) error {
	for n > 0 {
		m := n
		if m > len(zeroChunk) {
			m = len(zeroChunk)
		}
		if err := c.Send(p, zeroChunk[:m]); err != nil {
			return err
		}
		n -= m
	}
	return nil
}

// Buffered reports the bytes that Recv can return without blocking. A
// batched server uses it to decide whether another request is already on
// hand (keep accumulating the response burst) or the next read would park
// (flush first).
func (c *TCPConn) Buffered() int { return c.rcvBuf.Len() }

// Recv reads up to len(buf) bytes, blocking until data is available. It
// returns 0, false at end of stream.
func (c *TCPConn) Recv(p *sim.Proc, buf []byte) (int, bool) {
	c.s.CPU.Exec(p, c.s.Costs.SocketCycles)
	for c.rcvBuf.Len() == 0 {
		if c.gotFin || c.closed {
			return 0, false
		}
		c.readable.Wait(p)
	}
	n := c.rcvBuf.CopyAt(buf, 0)
	c.s.chargeCopy(p, n)
	// The bytes stay buffered through the copy charge: the window any
	// segment advertises meanwhile still counts them.
	c.rcvBuf.Discard(n)
	// Window update: if the advertised window was (nearly) closed and
	// draining reopened it, tell the peer or it will stall forever.
	if !c.closed && c.state != tcpClosed {
		newWnd := uint32(tcpRcvBufCap - c.rcvBuf.Len())
		if c.lastAdvWnd < uint32(2*c.mss) && newWnd >= uint32(4*c.mss) {
			c.sendAck(p)
		}
	}
	return n, true
}

// RecvN discards exactly n bytes from the stream (traffic sink); it
// reports how many bytes were actually read before EOF.
func (c *TCPConn) RecvN(p *sim.Proc, n int) int {
	buf := c.s.DiscardBuf()
	got := 0
	for got < n {
		want := n - got
		if want > len(buf) {
			want = len(buf)
		}
		m, ok := c.Recv(p, buf[:want])
		got += m
		if !ok {
			break
		}
	}
	return got
}

// RecvAll drains the stream until EOF, returning the byte count.
func (c *TCPConn) RecvAll(p *sim.Proc) int {
	buf := c.s.DiscardBuf()
	total := 0
	for {
		n, ok := c.Recv(p, buf)
		total += n
		if !ok {
			return total
		}
	}
}

// Close sends FIN after pending data and returns without waiting for the
// final ACK (as close(2) does).
func (c *TCPConn) Close(p *sim.Proc) {
	if c.closed || c.finQueued {
		return
	}
	c.s.CPU.Exec(p, c.s.Costs.SocketCycles)
	c.finQueued = true
	c.sendable.Notify()
}

// Closed reports whether the connection is fully terminated.
func (c *TCPConn) Closed() bool { return c.closed }

// WaitClosed blocks until both directions have shut down.
func (c *TCPConn) WaitClosed(p *sim.Proc) {
	for !c.closed {
		c.stateSig.Wait(p)
	}
}

func (c *TCPConn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.rto.Stop()
	c.delack.Stop()
	delete(c.s.conns, c.tuple)
	c.stateSig.Notify()
	c.readable.Notify()
	c.writable.Notify()
	c.sendable.Notify()
}

// ---- Transmit path ----

// transmitter is the per-connection send process: it segments the send
// buffer within the congestion and peer windows and emits segments (or TSO
// chunks).
func (c *TCPConn) transmitter(p *sim.Proc) {
	for {
		if c.closed {
			return
		}
		sent := c.trySend(p)
		if !sent {
			if c.finSent && c.finAcked && c.state == tcpLastAck {
				return
			}
			c.sendable.Wait(p)
			if c.closed {
				return
			}
		}
	}
}

// trySend emits as much as windows allow; it reports whether anything was
// sent.
func (c *TCPConn) trySend(p *sim.Proc) bool {
	if c.state != tcpEstablished && c.state != tcpCloseWait && c.state != tcpFinWait1 && c.state != tcpLastAck {
		return false
	}
	sentAny := false
	for {
		inFlight := int(c.sndNxt - c.sndUna)
		unsent := c.sndBuf.Len() - inFlight
		window := c.cwnd
		if int(c.rwnd) < window {
			window = int(c.rwnd)
		}
		avail := window - inFlight
		if unsent > 0 && avail > 0 {
			n := unsent
			if n > avail {
				n = avail
			}
			chunk := c.mss
			tsoSeg := 0
			feats := c.ifc.Dev.Features()
			if feats.TSO {
				max := feats.MaxTSOBytes
				if max == 0 || max > tcpMaxTSOChunk {
					max = tcpMaxTSOChunk
				}
				if n > c.mss {
					chunk = max
					tsoSeg = c.mss
				}
			}
			if n > chunk {
				n = chunk
			}
			if tsoSeg != 0 && n <= c.mss {
				tsoSeg = 0
			}
			seg := c.stageData(inFlight, n)
			seq := c.sndNxt
			c.sndNxt += uint32(n)
			if SeqGT(c.sndNxt, c.sndMax) {
				c.sndMax = c.sndNxt
			}
			c.emitData(p, seq, seg, tsoSeg)
			sentAny = true
			continue
		}
		// FIN once all data is out.
		if c.finQueued && !c.finSent && unsent == 0 {
			c.finSent = true
			c.finEver = true
			switch c.state {
			case tcpEstablished:
				c.state = tcpFinWait1
			case tcpCloseWait:
				c.state = tcpLastAck
			}
			c.sendSegment(p, TCPFin|TCPAck, c.sndNxt, c.rcvNxt)
			c.sndNxt++
			if SeqGT(c.sndNxt, c.sndMax) {
				c.sndMax = c.sndNxt
			}
			if !c.rto.Pending() {
				c.rto.Reset(c.currentRTO())
			}
			sentAny = true
		}
		return sentAny
	}
}

// emitData sends one staged data segment (or TSO chunk) starting at seq.
func (c *TCPConn) emitData(p *sim.Proc, seq uint32, seg []byte, tsoSeg int) {
	n := len(seg) - TCPHeaderBytes
	// Per-segment protocol cost: with TSO one cost covers the whole
	// chunk; without it each MSS pays its own way.
	c.s.CPU.Exec(p, c.s.Costs.TCPTxCycles)
	c.s.chargeCopy(p, n)
	c.s.chargeChecksumOn(p, len(seg), c.ifc.Dev)
	c.sendPayload(p, seg, TCPAck|TCPPsh, seq, c.rcvNxt, tsoSeg)
	c.SegsSent++
	c.BytesSent.Add(p.Now(), int64(n))
	if !c.rto.Pending() {
		c.rto.Reset(c.currentRTO())
	}
	if !c.rtActive {
		c.rtActive = true
		c.rtSeq = seq + uint32(n)
		c.rtStart = p.Now()
	}
	// Data segments carry the latest ack; delayed-ack state resets.
	c.ackCarried()
}

// sendSegment emits a control segment (SYN, FIN, pure ACK).
func (c *TCPConn) sendSegment(p *sim.Proc, flags uint8, seq, ack uint32) {
	c.s.CPU.Exec(p, c.s.Costs.TCPTxCycles/2)
	c.s.chargeChecksumOn(p, TCPHeaderBytes, c.ifc.Dev)
	c.sendPayload(p, c.s.GetFrameBuf(TCPHeaderBytes), flags, seq, ack, 0)
}

// stageData copies n send-buffer bytes from off into the payload of a
// fresh segment buffer. A data segment is staged before its first CPU
// charge: the ring reuses the space ACKs free, so a view into sndBuf held
// across a park could be overwritten by a Send that runs meanwhile.
func (c *TCPConn) stageData(off, n int) []byte {
	seg := c.s.GetFrameBuf(TCPHeaderBytes + n)
	c.sndBuf.CopyAt(seg[TCPHeaderBytes:], off)
	return seg
}

// sendPayload fills in the header of seg, whose payload is already in
// place, and sends it. The segment buffer comes from the stack's frame
// pool: sendIP copies it into the wire frame (or loopback packet) before
// returning, so it goes straight back. A per-conn scratch would not do —
// two procs of the same connection can both be parked between staging
// and sendIP's copy (CPU charge, ARP resolution).
func (c *TCPConn) sendPayload(p *sim.Proc, seg []byte, flags uint8, seq, ack uint32, tsoSeg int) {
	payload := seg[TCPHeaderBytes:]
	if len(payload) > 0 && SeqGT(seq+uint32(len(payload)), c.sndMax) {
		panic(fmt.Sprintf("netstack(%s) %s: emitting seq %d..%d beyond sndMax %d",
			c.s.Host, c.tuple, seq, seq+uint32(len(payload)), c.sndMax))
	}
	wnd := uint32(tcpRcvBufCap - c.rcvBuf.Len())
	c.lastAdvWnd = wnd
	PutTCP(seg, TCPHeader{
		SrcPort: c.tuple.lport, DstPort: c.tuple.rport,
		Seq: seq, Ack: ack, Flags: flags, Window: wnd,
	}, c.tuple.lip, c.tuple.rip, payload)
	_ = c.s.sendIP(p, ProtoTCP, c.tuple.lip, c.tuple.rip, seg, tsoSeg)
	c.s.RecycleFrameBuf(seg)
}

func (c *TCPConn) currentRTO() sim.Duration {
	if c.srtt == 0 {
		return 10 * sim.Millisecond
	}
	rto := c.srtt + 4*c.rttvar
	if rto < tcpMinRTO {
		rto = tcpMinRTO
	}
	if rto > tcpMaxRTO {
		rto = tcpMaxRTO
	}
	return rto
}

// rtoWithBackoff applies the exponential backoff: sustained loss must back
// the retransmission cadence off instead of hammering at a fixed rate.
func (c *TCPConn) rtoWithBackoff() sim.Duration {
	rto := c.currentRTO()
	for i := 0; i < c.backoff && rto < tcpMaxRTO; i++ {
		rto *= 2
	}
	if rto > tcpMaxRTO {
		rto = tcpMaxRTO
	}
	return rto
}

// onRTO fires in kernel context: retransmission timeout.
func (c *TCPConn) onRTO() {
	if c.closed {
		return
	}
	// Spurious firing with nothing outstanding: do not re-arm.
	if c.sndUna == c.sndNxt && c.state != tcpSynSent && c.state != tcpSynRcvd {
		return
	}
	c.backoff++
	c.Timeouts++
	c.s.K.Go(c.s.Host+"/tcp-rto", func(p *sim.Proc) {
		if c.closed {
			return
		}
		c.Retransmit++
		// Multiplicative decrease and go-back-N.
		inFlight := int(c.sndNxt - c.sndUna)
		c.ssthresh = inFlight / 2
		if c.ssthresh < 2*c.mss {
			c.ssthresh = 2 * c.mss
		}
		c.cwnd = c.mss
		c.dupAcks = 0
		c.rtActive = false
		switch c.state {
		case tcpSynSent:
			c.sendSegment(p, TCPSyn, c.sndUna, 0)
		case tcpSynRcvd:
			c.sendSegment(p, TCPSyn|TCPAck, c.sndUna, c.rcvNxt)
		default:
			c.sndNxt = c.sndUna
			if c.finSent {
				c.finSent = false // resend FIN after data
			}
			c.sendable.Notify()
		}
		c.rto.Reset(c.rtoWithBackoff())
	})
}

func (c *TCPConn) onDelAckTimer() {
	if c.closed || c.ackedUp == c.rcvNxt {
		return
	}
	c.s.K.Go(c.s.Host+"/tcp-delack", func(p *sim.Proc) {
		if c.closed {
			return
		}
		c.sendAck(p)
	})
}

func (c *TCPConn) sendAck(p *sim.Proc) {
	c.AcksSent++
	c.sendSegment(p, TCPAck, c.sndNxt, c.rcvNxt)
	c.ackCarried()
}

func (c *TCPConn) ackCarried() {
	c.ackedUp = c.rcvNxt
	c.unacked = 0
	c.delack.Stop()
}

// ---- Receive path ----

// rxTCP dispatches an inbound TCP segment to its connection or listener.
func (s *Stack) rxTCP(p *sim.Proc, hdr IPv4Header, seg []byte) {
	th, ok := ParseTCP(seg)
	if !ok {
		s.Drops++
		return
	}
	if !s.ChecksumBypass && !VerifyTCPChecksum(seg, hdr.Src, hdr.Dst) {
		s.Drops++
		return
	}
	t := fourTuple{lip: hdr.Dst, rip: hdr.Src, lport: th.DstPort, rport: th.SrcPort}
	if c, ok := s.conns[t]; ok {
		// Checksum verification cost is charged per the receiving
		// interface's offload capability.
		s.chargeChecksumOn(p, len(seg), c.ifc.Dev)
		c.segArrives(p, th, seg[TCPHeaderBytes:])
		return
	}
	if th.Flags&TCPSyn != 0 && th.Flags&TCPAck == 0 {
		if l, ok := s.listeners[th.DstPort]; ok {
			l.onSyn(p, t, th)
			return
		}
		// Connection refused: answer the SYN with RST so the client
		// fails fast instead of retransmitting into a void.
		s.sendRST(p, t, th.Seq+1)
		return
	}
	s.Drops++
}

// sendRST emits a reset for a connection attempt we refuse.
func (s *Stack) sendRST(p *sim.Proc, t fourTuple, ack uint32) {
	s.CPU.Exec(p, s.Costs.TCPTxCycles/2)
	seg := make([]byte, TCPHeaderBytes)
	PutTCP(seg, TCPHeader{
		SrcPort: t.lport, DstPort: t.rport,
		Seq: 0, Ack: ack, Flags: TCPRst | TCPAck, Window: 0,
	}, t.lip, t.rip, nil)
	_ = s.sendIP(p, ProtoTCP, t.lip, t.rip, seg, 0)
}

func (l *Listener) onSyn(p *sim.Proc, t fourTuple, th TCPHeader) {
	s := l.s
	var ifc *Iface
	if s.isLocal(t.rip) {
		ifc = s.loopbackIface(t.lip)
	} else {
		i, err := s.route(t.rip)
		if err != nil {
			s.Drops++
			return
		}
		ifc = i
	}
	c := s.newConn(t, ifc)
	c.state = tcpSynRcvd
	c.irsInit(th)
	c.sndUna, c.sndNxt, c.sndMax = 1, 2, 2
	c.acceptor = l
	c.sendSegment(p, TCPSyn|TCPAck, 1, c.rcvNxt)
	c.rto.Reset(c.currentRTO())
}

func (c *TCPConn) irsInit(th TCPHeader) {
	c.rcvNxt = th.Seq + 1
	c.ackedUp = c.rcvNxt
	c.rwnd = th.Window
}

// segArrives is the TCP input routine. It runs under the socket lock.
func (c *TCPConn) segArrives(p *sim.Proc, th TCPHeader, payload []byte) {
	c.rxLock.Acquire(p)
	defer c.rxLock.Release()
	c.s.CPU.Exec(p, c.s.Costs.TCPRxCycles)
	c.SegsRcvd++
	if th.Flags&TCPRst != 0 {
		c.teardown(fmt.Errorf("connection reset by peer"))
		return
	}
	if th.Window > c.rwnd {
		// A pure window update must restart a transmitter stalled on a
		// closed peer window.
		c.rwnd = th.Window
		c.sendable.Notify()
	} else {
		c.rwnd = th.Window
	}

	switch c.state {
	case tcpSynSent:
		if th.Flags&(TCPSyn|TCPAck) == TCPSyn|TCPAck && th.Ack == c.sndNxt {
			c.irsInit(th)
			c.sndUna = th.Ack
			c.state = tcpEstablished
			c.rto.Stop()
			c.sendAck(p)
			c.stateSig.Notify()
			c.sendable.Notify()
		}
		return
	case tcpSynRcvd:
		if th.Flags&TCPAck != 0 && th.Ack == c.sndNxt {
			c.sndUna = th.Ack
			c.state = tcpEstablished
			c.rto.Stop()
			c.stateSig.Notify()
			c.sendable.Notify()
			if c.acceptor != nil {
				c.acceptor.backlog.TryPut(c)
				c.acceptor = nil
			}
			// Fall through: the handshake ACK may carry data.
		} else {
			return
		}
	}

	if th.Flags&TCPAck != 0 {
		c.processAck(p, th.Ack)
	}
	if len(payload) > 0 {
		c.processData(p, th.Seq, payload)
	}
	if th.Flags&TCPFin != 0 {
		c.processFin(p, th.Seq, len(payload))
	}
}

func (c *TCPConn) processAck(p *sim.Proc, ack uint32) {
	if SeqGT(ack, c.sndMax) {
		return // acks something we never sent
	}
	// After a go-back-N rewind, an ACK for data sent before the rewind
	// moves the resend point forward too.
	if SeqGT(ack, c.sndNxt) {
		c.sndNxt = ack
	}
	if SeqLEQ(ack, c.sndUna) {
		if ack == c.sndUna && int(c.sndNxt-c.sndUna) > 0 {
			c.dupAcks++
			if c.dupAcks == tcpDupAckThresh {
				c.fastRetransmit(p)
			}
		}
		return
	}
	acked := int(ack - c.sndUna)
	c.sndUna = ack
	c.dupAcks = 0
	c.backoff = 0 // new data acknowledged: the path is alive again

	// RTT sample (Karn: only for non-retransmitted data).
	if c.rtActive && SeqGEQ(ack, c.rtSeq) {
		c.rtActive = false
		sample := p.Now().Sub(c.rtStart)
		if c.srtt == 0 {
			c.srtt = sample
			c.rttvar = sample / 2
		} else {
			diff := c.srtt - sample
			if diff < 0 {
				diff = -diff
			}
			c.rttvar = (3*c.rttvar + diff) / 4
			c.srtt = (7*c.srtt + sample) / 8
		}
	}

	// Trim the send buffer. The FIN consumes one sequence number with no
	// buffer bytes.
	dataAcked := acked
	if c.finEver && ack == c.sndMax {
		dataAcked--
		c.finAcked = true
		c.finSent = true // a pre-rewind FIN transmission was acked
	}
	c.sndBuf.Discard(min(dataAcked, c.sndBuf.Len()))
	c.writable.Notify()

	// Congestion control with appropriate byte counting (RFC 3465): a
	// receiver behind GRO acks large byte ranges with few ACK segments,
	// so growth must track bytes acked, not ACK arrivals.
	if c.cwnd < c.ssthresh {
		c.cwnd += acked // slow start
	} else {
		c.cwnd += c.mss * acked / c.cwnd // congestion avoidance
	}
	if c.cwnd > tcpSndBufCap {
		c.cwnd = tcpSndBufCap
	}

	if c.sndUna == c.sndNxt {
		c.rto.Stop()
	} else {
		c.rto.Reset(c.currentRTO())
	}
	c.sendable.Notify()

	// Close-state advancement.
	if c.finAcked {
		switch c.state {
		case tcpFinWait1:
			c.state = tcpFinWait2
			c.stateSig.Notify()
		case tcpLastAck:
			c.teardown(nil)
		}
	}
}

func (c *TCPConn) fastRetransmit(p *sim.Proc) {
	c.Retransmit++
	inFlight := int(c.sndNxt - c.sndUna)
	c.ssthresh = inFlight / 2
	if c.ssthresh < 2*c.mss {
		c.ssthresh = 2 * c.mss
	}
	c.cwnd = c.ssthresh + tcpDupAckThresh*c.mss
	// Retransmit the first unacked segment — capped to bytes actually in
	// flight: the send buffer also holds unsent data, and transmitting it
	// here without advancing sndNxt/sndMax would let the peer acknowledge
	// sequence numbers the sender believes it never sent.
	if n := min(c.mss, int(c.sndMax-c.sndUna), c.sndBuf.Len()); n > 0 {
		seg := c.stageData(0, n)
		c.s.chargeChecksum(p, len(seg))
		c.sendPayload(p, seg, TCPAck|TCPPsh, c.sndUna, c.rcvNxt, 0)
		c.SegsSent++
	}
	c.rtActive = false
}

func (c *TCPConn) processData(p *sim.Proc, seq uint32, payload []byte) {
	if SeqGT(seq, c.rcvNxt) {
		// Out of order: hold and dup-ack.
		if _, dup := c.ooo[seq]; !dup {
			buf := make([]byte, len(payload))
			copy(buf, payload)
			c.ooo[seq] = buf
		}
		c.sendAck(p)
		return
	}
	if SeqLT(seq, c.rcvNxt) {
		// Overlap from retransmission.
		skip := int(c.rcvNxt - seq)
		if skip >= len(payload) {
			c.sendAck(p)
			return
		}
		payload = payload[skip:]
		seq = c.rcvNxt
	}
	room := tcpRcvBufCap - c.rcvBuf.Len()
	if len(payload) > room {
		payload = payload[:room] // receiver window enforcement
		if len(payload) == 0 {
			c.sendAck(p)
			return
		}
	}
	c.s.chargeCopy(p, len(payload))
	c.rcvBuf.Write(payload)
	c.rcvNxt += uint32(len(payload))
	c.BytesRcvd.Add(p.Now(), int64(len(payload)))
	// Drain any now-contiguous out-of-order segments.
	for {
		next, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		room := tcpRcvBufCap - c.rcvBuf.Len()
		if len(next) > room {
			next = next[:room]
		}
		if len(next) == 0 {
			break
		}
		c.rcvBuf.Write(next)
		c.rcvNxt += uint32(len(next))
		c.BytesRcvd.Add(p.Now(), int64(len(next)))
	}
	c.readable.Notify()

	// Delayed ACK policy: ack every tcpAckEvery segments, else arm timer.
	c.unacked++
	if c.unacked >= tcpAckEvery || len(c.ooo) > 0 {
		c.sendAck(p)
	} else if !c.delack.Pending() {
		c.delack.Reset(tcpDelayedAckNs)
	}
}

func (c *TCPConn) processFin(p *sim.Proc, seq uint32, payloadLen int) {
	finSeq := seq + uint32(payloadLen)
	if finSeq != c.rcvNxt {
		// FIN beyond in-order data; remember it.
		c.gotFinAt(finSeq)
		c.sendAck(p)
		return
	}
	c.rcvNxt++
	c.gotFin = true
	// Enter CLOSE_WAIT before the ACK parks: a reader this FIN wakes may
	// close meanwhile, and must go to LAST_ACK, not to a FIN_WAIT_1 that
	// the switch below would tear down with data still unacknowledged.
	passive := c.state == tcpEstablished
	if passive {
		c.state = tcpCloseWait
	}
	c.readable.Notify()
	c.sendAck(p)
	switch {
	case passive:
		c.stateSig.Notify()
	case c.state == tcpFinWait1 || c.state == tcpFinWait2:
		// Simultaneous or normal close completion; skip TIME_WAIT.
		c.teardown(nil)
	}
}

func (c *TCPConn) gotFinAt(seq uint32) { c.finSeq = seq }

// DumpConns renders every live TCP connection's state for debugging
// stalled simulations.
func (s *Stack) DumpConns() string {
	var b []byte
	for t, c := range s.conns {
		b = append(b, fmt.Sprintf(
			"%s state=%d sndUna=%d sndNxt=%d sndMax=%d sndBuf=%d rcvBuf=%d rcvNxt=%d cwnd=%d rwnd=%d ooo=%d rto=%v finQ=%v finSent=%v\n",
			t, c.state, c.sndUna, c.sndNxt, c.sndMax, c.sndBuf.Len(), c.rcvBuf.Len(),
			c.rcvNxt, c.cwnd, c.rwnd, len(c.ooo), c.rto.Pending(), c.finQueued, c.finSent)...)
	}
	return string(b)
}
