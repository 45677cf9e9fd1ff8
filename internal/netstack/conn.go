package netstack

import "github.com/mcn-arch/mcn/internal/sim"

// Conn is the byte-stream surface shared by TCP connections and
// alternative transports (the MCN-native mcnt transport). Everything
// above the transport — the kvstore codec, the serving tier's shard
// connections, the MPI runtime — speaks this interface, so a link can
// swap TCP for a channel-native protocol without the application
// noticing.
type Conn interface {
	// Send transmits data, blocking on flow control.
	Send(p *sim.Proc, data []byte) error
	// SendN transmits n bytes of synthetic payload.
	SendN(p *sim.Proc, n int) error
	// Recv copies received bytes into buf, blocking until at least one
	// byte is available. ok=false means the peer closed and the stream
	// is drained.
	Recv(p *sim.Proc, buf []byte) (int, bool)
	// RecvN consumes and discards up to n bytes, returning the count
	// actually received before close.
	RecvN(p *sim.Proc, n int) int
	// Buffered reports bytes received but not yet consumed.
	Buffered() int
	// Close shuts the connection down.
	Close(p *sim.Proc)
	// Closed reports whether the connection is fully closed.
	Closed() bool
	// Tuple identifies the connection's two ends.
	Tuple() (local IP, lport uint16, remote IP, rport uint16)
}

// ReadFull reads exactly len(buf) bytes from c; false means the stream
// ended first.
func ReadFull(p *sim.Proc, c Conn, buf []byte) bool {
	for got := 0; got < len(buf); {
		n, ok := c.Recv(p, buf[got:])
		if !ok {
			return false
		}
		got += n
	}
	return true
}

// ByteRing is the socket buffer of both transports: a circular byte FIFO
// whose backing array starts at ringMinBytes on the first Write and
// doubles when full. Consumed space is reused in place, so a streaming
// connection stops allocating once its ring has grown to the peak
// occupancy; callers enforce the buffer caps. The zero value is empty.
type ByteRing struct {
	buf     []byte
	head, n int
}

const ringMinBytes = 4 << 10

// Len reports the bytes held.
func (r *ByteRing) Len() int { return r.n }

// Write appends b.
func (r *ByteRing) Write(b []byte) {
	if len(b) == 0 {
		return
	}
	if need := r.n + len(b); need > len(r.buf) {
		size := max(len(r.buf), ringMinBytes)
		for size < need {
			size *= 2
		}
		buf := make([]byte, size)
		r.CopyAt(buf, 0)
		r.buf, r.head = buf, 0
	}
	tail := (r.head + r.n) % len(r.buf)
	m := copy(r.buf[tail:], b)
	copy(r.buf, b[m:])
	r.n += len(b)
}

// CopyAt copies the bytes from off past the head into dst without
// consuming them and returns the count: min(len(dst), Len()-off).
func (r *ByteRing) CopyAt(dst []byte, off int) int {
	if off >= r.n {
		return 0
	}
	dst = dst[:min(len(dst), r.n-off)]
	m := copy(dst, r.buf[(r.head+off)%len(r.buf):])
	copy(dst[m:], r.buf)
	return len(dst)
}

// Discard consumes the first n bytes; n must not exceed Len.
func (r *ByteRing) Discard(n int) {
	r.n -= n
	if r.n == 0 {
		r.head = 0 // the next Write starts contiguous
		return
	}
	r.head = (r.head + n) % len(r.buf)
}

// frameQueue is TCP's receive buffer, behind ByteRing's Len/CopyAt/Discard
// surface: the in-order payload bytes. A large payload stays in the pool
// frame it arrived in, as Linux queues the skb, and Discard recycles the
// frame once it has consumed its last byte. A small payload, and one
// whose frame is not the queue's to keep, is copied once into the
// queue's ring, as a driver's rx_copybreak copies a small packet, so a
// run of small segments does not pin a frame each. With no frame held
// the queue is its ring alone. The frame slice is a FIFO popped by a
// head index and reused, so a warm connection allocates nothing.
type frameQueue struct {
	s    *Stack
	ring ByteRing  // the bytes not in a held frame
	segs []heldSeg // the held frames, oldest at head
	head int
	n    int
	// ringLast is the count of ring bytes pushed since the last frame
	// was, which come after it.
	ringLast int
}

// rxCopyBreak is the largest payload the queue copies into its ring
// rather than holding its frame: half the pool's 2KB class, so a frame
// held in that class pins at most twice its payload, and a copy moves at
// most 1KB. Of the benchmark's TCP data segments, 99.99% are at or below
// it on kv-tcp and 0.8% on stream. Holding every payload would pin 11
// bytes of pool buffer per kv-tcp payload byte (DESIGN.md, socket
// buffers, has the measurements).
const rxCopyBreak = 1024

// heldSeg is payload a connection keeps: data, in frame, the whole pool
// buffer it sits in. In a frameQueue, the next before ring bytes come
// ahead of it.
type heldSeg struct {
	frame, data []byte
	before      int
}

// holdSeg returns payload as a segment to keep out of the queue and
// reports whether it kept frame. By the queue's copy-break, a payload
// past rxCopyBreak stays in frame, the pool buffer it arrived in; a
// smaller one, or one whose frame is nil, is copied into a pool buffer of
// s sized to it.
func holdSeg(s *Stack, payload, frame []byte) (heldSeg, bool) {
	if frame != nil && len(payload) > rxCopyBreak {
		return heldSeg{frame: frame, data: payload}, true
	}
	buf := s.GetFrameBuf(len(payload))
	copy(buf, payload)
	return heldSeg{frame: buf, data: buf}, false
}

// Len reports the bytes held.
func (q *frameQueue) Len() int { return q.n }

// Push appends payload, which sits in frame, a pool buffer, or in bytes
// the caller keeps when frame is nil, and reports whether the queue kept
// frame.
func (q *frameQueue) Push(payload, frame []byte) bool {
	q.n += len(payload)
	if frame == nil || len(payload) <= rxCopyBreak {
		q.ring.Write(payload)
		q.ringLast += len(payload)
		return false
	}
	if q.head > 0 && len(q.segs) == cap(q.segs) {
		n := copy(q.segs, q.segs[q.head:])
		clear(q.segs[n:])
		q.segs, q.head = q.segs[:n], 0
	}
	q.segs = append(q.segs, heldSeg{frame: frame, data: payload, before: q.ringLast})
	q.ringLast = 0
	return true
}

// CopyAt copies the bytes from off past the head into dst without
// consuming them and returns the count: min(len(dst), Len()-off).
func (q *frameQueue) CopyAt(dst []byte, off int) int {
	m, ringOff := 0, 0
	for i := q.head; m < len(dst); i++ {
		// The ring bytes ahead of frame i, or after the last frame.
		n := q.ring.Len() - ringOff
		if i < len(q.segs) {
			n = q.segs[i].before
		}
		if off < n {
			m += q.ring.CopyAt(dst[m:min(len(dst), m+n-off)], ringOff+off)
			off = 0
		} else {
			off -= n
		}
		ringOff += n
		if i == len(q.segs) {
			break
		}
		if data := q.segs[i].data; off < len(data) {
			m += copy(dst[m:], data[off:])
			off = 0
		} else {
			off -= len(data)
		}
	}
	return m
}

// Discard consumes the first n bytes; n must not exceed Len.
func (q *frameQueue) Discard(n int) {
	q.n -= n
	for n > 0 && q.head < len(q.segs) {
		seg := &q.segs[q.head]
		k := min(n, seg.before)
		q.ring.Discard(k)
		seg.before -= k
		if n -= k; n == 0 {
			return
		}
		if n < len(seg.data) {
			seg.data = seg.data[n:]
			return
		}
		n -= len(seg.data)
		q.s.RecycleFrameBuf(seg.frame)
		*seg = heldSeg{}
		if q.head++; q.head == len(q.segs) {
			q.segs, q.head = q.segs[:0], 0
		}
	}
	q.ring.Discard(n)
	q.ringLast = min(q.ringLast, q.ring.Len())
}

// Acceptor accepts inbound connections on a listening port.
type Acceptor interface {
	AcceptConn(p *sim.Proc) (Conn, error)
	// Close stops the acceptor; blocked AcceptConn calls return an
	// error.
	Close()
}

// Transport dials and listens for byte-stream connections. *Stack is
// the TCP implementation; mcnt.Fabric provides the MCN-native one.
type Transport interface {
	DialConn(p *sim.Proc, dst IP, port uint16) (Conn, error)
	ListenConn(port uint16) (Acceptor, error)
}

// DialConn implements Transport over TCP.
func (s *Stack) DialConn(p *sim.Proc, dst IP, port uint16) (Conn, error) {
	c, err := s.Connect(p, dst, port)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ListenConn implements Transport over TCP.
func (s *Stack) ListenConn(port uint16) (Acceptor, error) {
	l, err := s.Listen(port)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// AcceptConn implements Acceptor for the TCP listener.
func (l *Listener) AcceptConn(p *sim.Proc) (Conn, error) {
	c, err := l.Accept(p)
	if err != nil {
		return nil, err
	}
	return c, nil
}
