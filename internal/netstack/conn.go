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
