package netstack

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/cpu"
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
	rcvBuf  frameQueue
	rcvNxt  uint32
	ooo     map[uint32]heldSeg // out-of-order segments by seq
	gotFin  bool
	ackedUp uint32 // highest rcvNxt we have acked
	unacked int    // full segments received since last ack
	// lastAdvWnd is the receive window advertised in the most recent
	// segment we sent; when the application drains a closed window a
	// window-update ACK must be emitted or the peer stalls forever.
	lastAdvWnd uint32
	// oooPruned is set once pruneOOO drops a segment. From then on every
	// data segment is acked at once, as while any segment is held out of
	// order: the receiver's ack pacing does not return to delayed acks
	// after a retransmission resegments a hole (ROADMAP item 18(f)).
	oooPruned bool

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
	rto      *sim.Timer
	delack   *sim.Timer
	sendable *sim.Signal // transmitter wakeups
	readable *sim.Signal // reader wakeups
	writable *sim.Signal // writer wakeups (buffer space)
	stateSig *sim.Signal // connection state transitions
	closed   bool
	closeErr error

	// sendChunk and recvChunk are onSendChunk and onRecvChunk, and
	// awaitReadable a wait on readable as a charge-sequence step, all
	// bound once.
	sendChunk, recvChunk func(*cpu.Seq)
	awaitReadable        func(n int, done func())

	// backoff counts consecutive retransmission timeouts; each one doubles
	// the next RTO (clamped at tcpMaxRTO) until a new ACK resets it.
	backoff int

	// Stats.
	BytesSent  stats.Counter
	BytesRcvd  stats.Counter
	SegsRcvd   int64
	AcksSent   int64
	Retransmit int64
	Timeouts   int64
}

func (s *Stack) newConn(t fourTuple, ifc *Iface) *TCPConn {
	c := &TCPConn{
		s: s, tuple: t, ifc: ifc,
		mss:      ifc.Dev.MTU() - IPv4HeaderBytes - TCPHeaderBytes,
		ooo:      make(map[uint32]heldSeg),
		sendable: s.K.NewSignal(),
		readable: s.K.NewSignal(),
		writable: s.K.NewSignal(),
		stateSig: s.K.NewSignal(),
		rwnd:     tcpRcvBufCap,
	}
	c.rcvBuf.s = s
	c.cwnd = tcpInitCwndMSS * c.mss
	c.ssthresh = tcpRcvBufCap
	c.rxLock = s.K.NewResource(1)
	c.sendChunk, c.recvChunk = c.onSendChunk, c.onRecvChunk
	c.awaitReadable = func(_ int, done func()) { c.readable.WaitThen(done) }
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
func (loopDev) TransmitSteps(*cpu.Seq)    { panic("loopback frames are delivered in-stack") }

// Tuple returns the connection 4-tuple.
func (c *TCPConn) Tuple() (local IP, lport uint16, remote IP, rport uint16) {
	return c.tuple.lip, c.tuple.lport, c.tuple.rip, c.tuple.rport
}

// Send writes data to the connection, blocking for buffer space. It
// returns once all bytes are accepted into the send buffer. Each chunk's
// copy runs as a chain, the first one behind the socket charge.
func (c *TCPConn) Send(p *sim.Proc, data []byte) error {
	q := c.s.CPU.Seq().Exec(c.s.Costs.SocketCycles)
	for {
		q.N = len(data)
		if n := q.Hook(c.sendChunk).Run(p); n > 0 {
			c.sndBuf.Write(data[:n])
			data = data[n:]
			c.sendable.Notify()
		}
		if len(data) == 0 {
			return nil
		}
		if c.closed || c.finQueued {
			return fmt.Errorf("netstack(%s): send on closed connection", c.s.Host)
		}
		if c.sndBuf.Len() == tcpSndBufCap {
			c.writable.Wait(p)
		}
		q = c.s.CPU.Seq()
	}
}

// onSendChunk runs when Send's socket charge (or, for a later chunk, the
// chain's start) retires, with N the bytes left to send. When the
// connection is open and the buffer has room, the chunk's copy joins the
// chain and N becomes its size; otherwise N is 0 and Send checks why.
func (c *TCPConn) onSendChunk(q *cpu.Seq) {
	n := q.N
	q.N = 0
	space := tcpSndBufCap - c.sndBuf.Len()
	if n == 0 || c.closed || c.finQueued || space == 0 {
		return
	}
	q.N = min(n, space)
	c.s.CopyStep(q, q.N)
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
// returns 0, false at end of stream. The socket charge, any wait for data
// and the copy of the bytes read run as one chain.
func (c *TCPConn) Recv(p *sim.Proc, buf []byte) (int, bool) {
	q := c.s.CPU.Seq().Exec(c.s.Costs.SocketCycles).Hook(c.recvChunk)
	q.N, q.Buf = -1, buf
	n := q.Run(p)
	if n < 0 {
		return 0, false
	}
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

// onRecvChunk runs when Recv's socket charge retires, and again after
// each wait: buffered bytes are copied into Buf, N becomes their count and
// their copy charge joins the chain. With nothing buffered the chain waits
// for readable and runs the hook again, where a process would have waited
// and re-checked; at end of stream N stays -1.
func (c *TCPConn) onRecvChunk(q *cpu.Seq) {
	if c.rcvBuf.Len() == 0 {
		if !c.gotFin && !c.closed {
			q.Wait(c.awaitReadable, 0).Hook(c.recvChunk)
		}
		return
	}
	q.N = c.rcvBuf.CopyAt(q.Buf, 0)
	c.s.CopyStep(q, q.N)
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

func (c *TCPConn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.rto.Stop()
	c.delack.Stop()
	delete(c.s.conns, c.tuple)
	// The out-of-order set is never drained again, so its buffers go back
	// to the pool (one a segment already queued on rxLock adds later
	// goes to the GC with the connection). The receive queue stays: Recv
	// still returns what it holds and recycles each frame it empties.
	for seq, seg := range c.ooo {
		c.s.RecycleFrameBuf(seg.frame)
		delete(c.ooo, seq)
	}
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
			frame := c.stageData(inFlight, n)
			seq := c.sndNxt
			c.sndNxt += uint32(n)
			if SeqGT(c.sndNxt, c.sndMax) {
				c.sndMax = c.sndNxt
			}
			c.emitData(p, seq, frame, tsoSeg)
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
func (c *TCPConn) emitData(p *sim.Proc, seq uint32, frame []byte, tsoSeg int) {
	segLen := len(frame) - frameHeadroom
	n := segLen - TCPHeaderBytes
	// Per-segment protocol cost: with TSO one cost covers the whole
	// chunk; without it each MSS pays its own way. The protocol, copy
	// and checksum charges, IP and the device run as one chain.
	q := c.s.CPU.Seq().Exec(c.s.Costs.TCPTxCycles)
	c.s.CopyStep(q, n)
	c.s.checksumStep(q, segLen, c.ifc.Dev)
	t := c.segment(frame, TCPAck|TCPPsh, seq, 0, tsoSeg)
	t.liveAck = true
	t.sendAfter(p, q)
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

// sendSegment emits a control segment (SYN, FIN, pure ACK): its charges,
// IP and the device run as one chain.
func (c *TCPConn) sendSegment(p *sim.Proc, flags uint8, seq, ack uint32) {
	q := c.s.CPU.Seq().Exec(c.s.Costs.TCPTxCycles / 2)
	c.s.checksumStep(q, TCPHeaderBytes, c.ifc.Dev)
	c.segment(nil, flags, seq, ack, 0).sendAfter(p, q)
}

// stageData copies n send-buffer bytes from off into the payload of a
// fresh pool frame, behind room for the Ethernet, IPv4 and TCP headers:
// this is the segment's one copy before the wire. A data segment is
// staged before its first CPU charge: the ring reuses the space ACKs
// free, so a view into sndBuf held across a park could be overwritten by
// a Send that runs meanwhile.
func (c *TCPConn) stageData(off, n int) []byte {
	frame := c.s.getTxFrame(TCPHeaderBytes + n)
	c.sndBuf.CopyAt(frame[frameHeadroom+TCPHeaderBytes:], off)
	return frame
}

// segment returns a packet chain for one of c's segments: frame is a
// getTxFrame buffer whose payload is already in place, or nil for a
// control segment, whose header-only frame the chain takes. Each segment
// has its own frame: two procs of the same connection can both be parked
// between staging and the device (CPU charge, ARP resolution).
func (c *TCPConn) segment(frame []byte, flags uint8, seq, ack uint32, tsoSeg int) *txPkt {
	t := c.s.getTx(ProtoTCP, c.tuple.lip, c.tuple.rip, frame, tsoSeg)
	t.c, t.flags, t.seq, t.ack = c, flags, seq, ack
	return t
}

// sendAfter sends the segment with its transport charges, which q holds,
// IP and the device as one chain.
func (t *txPkt) sendAfter(p *sim.Proc, q *cpu.Seq) {
	q.Hook(t.tcp).Run(p)
	t.finish(p)
}

// onTCP runs when the segment's transport charges retire: it fills in the
// TCP header and hands the segment to IP.
func (t *txPkt) onTCP(q *cpu.Seq) {
	c := t.c
	if t.frame == nil {
		t.frame = c.s.getTxFrame(TCPHeaderBytes)
	}
	if t.liveAck {
		t.ack = c.rcvNxt
	}
	seg := t.frame[frameHeadroom:]
	payload := seg[TCPHeaderBytes:]
	if len(payload) > 0 && SeqGT(t.seq+uint32(len(payload)), c.sndMax) {
		panic(fmt.Sprintf("netstack(%s) %s: emitting seq %d..%d beyond sndMax %d",
			c.s.Host, c.tuple, t.seq, t.seq+uint32(len(payload)), c.sndMax))
	}
	wnd := uint32(tcpRcvBufCap - c.rcvBuf.Len())
	c.lastAdvWnd = wnd
	PutTCP(seg, TCPHeader{
		SrcPort: c.tuple.lport, DstPort: c.tuple.rport,
		Seq: t.seq, Ack: t.ack, Flags: t.flags, Window: wnd,
	}, c.tuple.lip, c.tuple.rip, payload)
	t.onIP(q)
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

// rxTCP dispatches an inbound TCP segment, in deliverIP's chain. A
// segment of an open connection appends its checksum charge, charged per
// the receiving interface's offload capability, the socket lock and the
// TCP input charge; segArrives then runs in the process. Any other
// segment goes to rxTCPNoConn. The checksum is verified unless the stack
// bypasses it or the device vouched for it (Frame.ChecksumOK); the
// charge does not depend on either.
func (s *Stack) rxTCP(q *cpu.Seq, r *rxPkt) {
	seg := r.body
	th, ok := ParseTCP(seg)
	if !ok || (!s.ChecksumBypass && !r.csumOK && !VerifyTCPChecksum(seg, r.hdr.Src, r.hdr.Dst)) {
		s.Drops++
		r.body = nil
		return
	}
	r.th = th
	if c, ok := s.conns[rxTuple(r.hdr, th)]; ok {
		r.c = c
		s.checksumStep(q, len(seg), c.ifc.Dev)
		q.Lock(c.rxLock).Exec(s.Costs.TCPRxCycles)
	}
}

// rxTuple is the four-tuple of the connection an inbound segment is for.
func rxTuple(hdr IPv4Header, th TCPHeader) fourTuple {
	return fourTuple{lip: hdr.Dst, rip: hdr.Src, lport: th.DstPort, rport: th.SrcPort}
}

// rxTCPNoConn takes a segment no connection owns: a SYN for a listener,
// a SYN refused with RST, or a drop.
func (s *Stack) rxTCPNoConn(p *sim.Proc, hdr IPv4Header, th TCPHeader) {
	t := rxTuple(hdr, th)
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
	_ = s.sendIP(p, ProtoTCP, t.lip, t.rip, seg)
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

// segArrives is the TCP input routine. deliverIP's chain took the socket
// lock and charged tcp_rcv; segArrives releases the lock when it returns.
// frame is the pool buffer payload sits in when the connection may keep
// it, or nil; segArrives reports whether the connection kept it.
func (c *TCPConn) segArrives(p *sim.Proc, th TCPHeader, payload, frame []byte) (held bool) {
	defer c.rxLock.Release()
	c.SegsRcvd++
	if th.Flags&TCPRst != 0 {
		c.teardown(fmt.Errorf("connection reset by peer"))
		return false
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
		return false
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
			return false
		}
	}

	if th.Flags&TCPAck != 0 {
		c.processAck(p, th.Ack)
	}
	if len(payload) > 0 {
		held = c.processData(p, th.Seq, payload, frame)
	}
	if th.Flags&TCPFin != 0 {
		c.processFin(p, th.Seq, len(payload))
	}
	return held
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
		// The socket lock holds sndUna and rcvNxt through the charge.
		frame := c.stageData(0, n)
		q := c.s.CPU.Seq()
		c.s.checksumStep(q, len(frame)-frameHeadroom, nil)
		c.segment(frame, TCPAck|TCPPsh, c.sndUna, c.rcvNxt, 0).sendAfter(p, q)
	}
	c.rtActive = false
}

// processData takes a segment's payload. frame is as for segArrives;
// processData reports whether the connection kept it.
func (c *TCPConn) processData(p *sim.Proc, seq uint32, payload, frame []byte) (held bool) {
	if SeqGT(seq, c.rcvNxt) {
		// Out of order: hold and dup-ack.
		if _, dup := c.ooo[seq]; !dup {
			c.ooo[seq], held = holdSeg(c.s, payload, frame)
		}
		c.sendAck(p)
		return held
	}
	if SeqLT(seq, c.rcvNxt) {
		// Overlap from retransmission.
		skip := int(c.rcvNxt - seq)
		if skip >= len(payload) {
			c.sendAck(p)
			return false
		}
		payload = payload[skip:]
		seq = c.rcvNxt
	}
	room := tcpRcvBufCap - c.rcvBuf.Len()
	if len(payload) > room {
		payload = payload[:room] // receiver window enforcement
		if len(payload) == 0 {
			c.sendAck(p)
			return false
		}
	}
	c.s.chargeCopy(p, len(payload))
	held = c.rcvBuf.Push(payload, frame)
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
		if len(next.data) > room {
			next.data = next.data[:room]
		}
		if len(next.data) == 0 {
			c.s.RecycleFrameBuf(next.frame)
			break
		}
		if !c.rcvBuf.Push(next.data, next.frame) {
			c.s.RecycleFrameBuf(next.frame)
		}
		c.rcvNxt += uint32(len(next.data))
		c.BytesRcvd.Add(p.Now(), int64(len(next.data)))
	}
	if len(c.ooo) > 0 {
		c.pruneOOO()
	}
	c.readable.Notify()

	// Delayed ACK policy: ack every tcpAckEvery segments, else arm timer.
	c.unacked++
	if c.unacked >= tcpAckEvery || len(c.ooo) > 0 || c.oooPruned {
		c.sendAck(p)
	} else if !c.delack.Pending() {
		c.delack.Reset(tcpDelayedAckNs)
	}
	return held
}

// pruneOOO recycles and drops the out-of-order segments that begin
// before rcvNxt. A retransmission cut at other boundaries, or a held
// segment that overlapped them, delivered their first byte, so the drain
// at rcvNxt never reaches them and they would pin their buffers until
// teardown.
func (c *TCPConn) pruneOOO() {
	for seq, seg := range c.ooo {
		if SeqLT(seq, c.rcvNxt) {
			c.s.RecycleFrameBuf(seg.frame)
			delete(c.ooo, seq)
			c.oooPruned = true
		}
	}
}

// processFin takes a FIN that arrives in order. A FIN beyond a gap in
// the data is dropped, not held: the ACK sent for it asks again for the
// missing bytes, and the FIN arrives again only with the peer's
// retransmission after its RTO.
func (c *TCPConn) processFin(p *sim.Proc, seq uint32, payloadLen int) {
	if seq+uint32(payloadLen) != c.rcvNxt {
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
