package mcnt

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Conn is one mcnt stream. It implements netstack.Conn, so the
// kvstore codec, the serving tier and the MPI runtime run over it
// unchanged.
type Conn struct {
	ep     *endpoint
	l      *linkEnd
	stream uint32
	dialer bool

	localIP  netstack.IP
	lport    uint16
	remoteIP netstack.IP
	rport    uint16

	// Send direction (bytes we emit on the stream).
	sentB   uint64 // cumulative payload bytes sent
	grantB  uint64 // cumulative bytes the peer has consumed (from credit fields)
	sendSig *sim.Signal

	// Receive direction (bytes the peer emits to us).
	rxbuf     netstack.ByteRing
	rcvdB     uint64 // cumulative payload bytes delivered in order
	consumedB uint64 // cumulative bytes the application has consumed
	lastGrant uint64 // last consumedB value announced to the peer
	rxSig     *sim.Signal

	closed     bool // our direction FINed
	peerClosed bool // peer's direction FINed
}

func newConn(ep *endpoint, l *linkEnd, stream uint32, dialer bool, localIP netstack.IP, lport uint16, remoteIP netstack.IP, rport uint16) *Conn {
	return &Conn{
		ep: ep, l: l, stream: stream, dialer: dialer,
		localIP: localIP, lport: lport, remoteIP: remoteIP, rport: rport,
		sendSig: ep.f.K.NewSignal(), rxSig: ep.f.K.NewSignal(),
	}
}

// McntStreamID exposes the stream id; the observability plane
// duck-types on it to correlate wire frames with spans.
func (c *Conn) McntStreamID() uint32 { return c.stream }

// Tuple identifies the stream's two ends. The dialer side synthesizes
// its local port from the stream id, mirrored as the acceptor's remote
// port, so flow keys match across the wire exactly like TCP's.
func (c *Conn) Tuple() (local netstack.IP, lport uint16, remote netstack.IP, rport uint16) {
	return c.localIP, c.lport, c.remoteIP, c.rport
}

// onCredit absorbs a cumulative credit announcement.
func (c *Conn) onCredit(wire uint32) {
	if ng := advance64(c.grantB, wire); ng > c.grantB {
		c.grantB = ng
		c.sendSig.Notify()
	}
}

// Send transmits data, blocking while the peer's credit window is
// exhausted. A blocked sender periodically probes so a lost
// pure-credit frame cannot wedge the stream.
func (c *Conn) Send(p *sim.Proc, data []byte) error {
	st := c.ep.n.Stack
	st.CPU.Exec(p, st.Costs.SocketCycles)
	c.chargeCopy(p, len(data))
	w := uint64(c.ep.f.Pr.Window)
	for off := 0; off < len(data); {
		if c.closed {
			return fmt.Errorf("mcnt(%s): send on closed stream %d", c.ep.n.Name, c.stream)
		}
		n := len(data) - off
		if n > MaxData {
			n = MaxData
		}
		avail := int(w - (c.sentB - c.grantB))
		if avail <= 0 {
			if f := c.ep.f; f.OnCreditStall != nil {
				f.OnCreditStall(p.Now())
			}
			if !c.sendSig.WaitTimeout(p, c.ep.f.Pr.ProbeTimeout) {
				c.l.sendCtl(p, KindProbe, c.stream)
				c.ep.f.Probes++
			}
			continue
		}
		if n > avail {
			n = avail
		}
		streamOff := c.sentB
		c.sentB += uint64(n) // reserve before any blocking call
		h := Header{Kind: KindData, Stream: c.stream, Off: uint32(streamOff)}
		if c.dialer {
			h.Flags = FlagFromDialer
		}
		c.l.sendSequenced(p, h, data[off:off+n])
		off += n
	}
	return nil
}

var zeroChunk = make([]byte, MaxData)

// SendN sends n synthetic bytes.
func (c *Conn) SendN(p *sim.Proc, n int) error {
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

// Buffered reports bytes received but not yet consumed.
func (c *Conn) Buffered() int { return c.rxbuf.Len() }

// Recv reads up to len(buf) bytes, blocking until data is available.
// It returns 0, false at end of stream.
func (c *Conn) Recv(p *sim.Proc, buf []byte) (int, bool) {
	st := c.ep.n.Stack
	st.CPU.Exec(p, st.Costs.SocketCycles)
	for c.rxbuf.Len() == 0 {
		if c.peerClosed || c.closed {
			return 0, false
		}
		c.rxSig.Wait(p)
	}
	n := c.rxbuf.CopyAt(buf, 0)
	c.rxbuf.Discard(n)
	c.chargeCopy(p, n)
	c.consumedB += uint64(n)
	// Return credit once half a window has accumulated unannounced;
	// reverse-direction data frames piggyback it for free otherwise.
	if c.consumedB-c.lastGrant >= uint64(c.ep.f.Pr.Window)/2 {
		c.l.wantCtl(c.stream)
	}
	return n, true
}

// RecvN consumes and discards up to n bytes, returning the count
// actually received before close.
func (c *Conn) RecvN(p *sim.Proc, n int) int {
	buf := c.ep.n.Stack.DiscardBuf()
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

// Close shuts down our direction with a sequenced (hence reliable) FIN
// that also carries our final cumulative credit, resynchronizing the
// peer's window accounting even if earlier credit frames were lost.
func (c *Conn) Close(p *sim.Proc) {
	if c.closed {
		return
	}
	st := c.ep.n.Stack
	st.CPU.Exec(p, st.Costs.SocketCycles)
	c.closed = true
	h := Header{Kind: KindFin, Stream: c.stream}
	if c.dialer {
		h.Flags = FlagFromDialer
	}
	c.l.sendSequenced(p, h, nil)
	c.rxSig.Notify()
	c.sendSig.Notify()
}

// Closed reports whether both directions are shut down.
func (c *Conn) Closed() bool { return c.closed && c.peerClosed }

func (c *Conn) chargeCopy(p *sim.Proc, n int) {
	st := c.ep.n.Stack
	if st.Copy != nil {
		st.Copy(p, n)
		return
	}
	st.CPU.Exec(p, int64(n)/st.Costs.CopyBytesPerCycle+1)
}

// String describes the stream's cumulative accounting.
func (c *Conn) String() string {
	return fmt.Sprintf("mcnt stream %d %s:%d->%s:%d sent=%d granted=%d rcvd=%d consumed=%d",
		c.stream, c.localIP, c.lport, c.remoteIP, c.rport, c.sentB, c.grantB, c.rcvdB, c.consumedB)
}

// Listener accepts mcnt streams (and, via WithTCP, TCP connections on
// the same port) on one endpoint.
type Listener struct {
	ep   *endpoint
	port uint16
	q    *sim.Queue[netstack.Conn]
	tcp  *netstack.Listener
}

// Listen starts accepting streams dialed to the node's fabric IP on
// the given port. Streams dialed before Listen wait in an embryonic
// queue (the channel is reliable, so there is no SYN to lose).
func (f *Fabric) Listen(n *node.Node, port uint16) (*Listener, error) {
	ep := f.byNode[n]
	if ep == nil {
		return nil, fmt.Errorf("mcnt: node %s is not on the fabric", n.Name)
	}
	if ep.listeners[port] != nil {
		return nil, fmt.Errorf("mcnt(%s): port %d already listening", n.Name, port)
	}
	ln := &Listener{ep: ep, port: port, q: sim.NewQueue[netstack.Conn](f.K, 0)}
	for _, c := range ep.embryo[port] {
		ln.q.TryPut(c)
	}
	delete(ep.embryo, port)
	ep.listeners[port] = ln
	return ln, nil
}

// WithTCP additionally accepts TCP connections to the same port on the
// node's regular stack, merging them into one accept queue — servers
// on an mcnt topology stay reachable for peers that dial TCP (e.g.
// cross-host traffic and the replication plane).
func (ln *Listener) WithTCP() error {
	tl, err := ln.ep.n.Stack.Listen(ln.port)
	if err != nil {
		return err
	}
	ln.tcp = tl
	ln.ep.f.K.Go(fmt.Sprintf("mcnt/%s/accept-tcp/%d", ln.ep.n.Name, ln.port), func(p *sim.Proc) {
		for {
			c, err := tl.Accept(p)
			if err != nil {
				return
			}
			ln.q.TryPut(c)
		}
	})
	return nil
}

// AcceptConn blocks until a stream (or merged TCP connection) arrives.
func (ln *Listener) AcceptConn(p *sim.Proc) (netstack.Conn, error) {
	c, ok := ln.q.Get(p)
	if !ok {
		return nil, fmt.Errorf("mcnt(%s): listener closed", ln.ep.n.Name)
	}
	return c, nil
}

// Close stops the listener.
func (ln *Listener) Close() {
	if ln.tcp != nil {
		ln.tcp.Close()
	}
	delete(ln.ep.listeners, ln.port)
	ln.q.Close()
}

// Dial opens a stream from a fabric node to a fabric IP. There is no
// handshake round-trip: the sequenced SYN reliably creates the peer
// state, and the fixed window is granted implicitly, so the dialer may
// write immediately.
func (f *Fabric) Dial(p *sim.Proc, from *node.Node, dst netstack.IP, port uint16) (*Conn, error) {
	ep := f.byNode[from]
	if ep == nil {
		return nil, fmt.Errorf("mcnt: node %s is not on the fabric", from.Name)
	}
	a := ep.adjByIP[dst]
	if a == nil {
		return nil, fmt.Errorf("mcnt(%s): %v is not on the fabric", from.Name, dst)
	}
	st := ep.n.Stack
	st.CPU.Exec(p, st.Costs.SocketCycles)
	l := ep.link(a.peerMAC)
	stream := f.nextStream
	f.nextStream++
	c := newConn(ep, l, stream, true, ep.ip, uint16(stream), dst, port)
	ep.conns[stream] = c
	f.pairs[stream] = &streamPair{dialer: c}
	f.streams = append(f.streams, stream)
	l.sendSequenced(p, Header{
		Kind: KindSyn, Flags: FlagFromDialer, Stream: stream, Off: uint32(port),
	}, nil)
	return c, nil
}

// transport adapts one fabric node to netstack.Transport with TCP
// fallback for destinations off the fabric (10GbE uplinks, loopback).
type transport struct {
	f *Fabric
	n *node.Node
}

// TransportFor returns the node's per-link-selectable transport:
// memory-channel hops use mcnt, everything else falls back to the
// node's TCP stack. It returns nil for nodes outside the fabric.
func (f *Fabric) TransportFor(n *node.Node) netstack.Transport {
	if f.byNode[n] == nil {
		return nil
	}
	return transport{f: f, n: n}
}

// DialConn implements netstack.Transport.
func (t transport) DialConn(p *sim.Proc, dst netstack.IP, port uint16) (netstack.Conn, error) {
	if ep := t.f.byNode[t.n]; ep != nil && ep.adjByIP[dst] != nil {
		return t.f.Dial(p, t.n, dst, port)
	}
	return t.n.Stack.DialConn(p, dst, port)
}

// ListenConn implements netstack.Transport: the returned acceptor
// merges mcnt streams and TCP connections on the port.
func (t transport) ListenConn(port uint16) (netstack.Acceptor, error) {
	ln, err := t.f.Listen(t.n, port)
	if err != nil {
		return nil, err
	}
	if err := ln.WithTCP(); err != nil {
		ln.Close()
		return nil, err
	}
	return ln, nil
}

// CheckAccounting audits every stream's credit algebra and every
// link's resend window after a run quiesces. It returns one line per
// violation (empty means zero drift): all sent bytes delivered exactly
// once, every announced grant received, and — for fully closed streams
// — the sender's window converged to the receiver's consumed count.
func (f *Fabric) CheckAccounting() []string {
	var bad []string
	for _, l := range f.links {
		if n := len(l.unacked); n != 0 {
			bad = append(bad, fmt.Sprintf("link %s: %d frames still unacked", l.name, n))
		}
	}
	for _, s := range f.streams {
		pr := f.pairs[s]
		if pr.acceptor == nil {
			bad = append(bad, fmt.Sprintf("stream %d: SYN never delivered", s))
			continue
		}
		dirs := []struct {
			name     string
			from, to *Conn
		}{
			{"fwd", pr.dialer, pr.acceptor},
			{"rev", pr.acceptor, pr.dialer},
		}
		for _, d := range dirs {
			if d.from.sentB != d.to.rcvdB {
				bad = append(bad, fmt.Sprintf("stream %d %s: sent %d bytes, delivered %d",
					s, d.name, d.from.sentB, d.to.rcvdB))
			}
			if d.to.consumedB > d.to.rcvdB {
				bad = append(bad, fmt.Sprintf("stream %d %s: consumed %d > received %d",
					s, d.name, d.to.consumedB, d.to.rcvdB))
			}
			if d.from.grantB != d.to.lastGrant {
				bad = append(bad, fmt.Sprintf("stream %d %s: announced grant %d, sender holds %d",
					s, d.name, d.to.lastGrant, d.from.grantB))
			}
			closed := pr.dialer.closed && pr.dialer.peerClosed && pr.acceptor.closed && pr.acceptor.peerClosed
			if closed && d.from.grantB != d.to.consumedB {
				bad = append(bad, fmt.Sprintf("stream %d %s: window not recovered: grant %d vs consumed %d",
					s, d.name, d.from.grantB, d.to.consumedB))
			}
		}
	}
	return bad
}

// Streams returns the number of streams ever dialed on the fabric.
func (f *Fabric) Streams() int { return len(f.streams) }

// String summarizes fabric traffic.
func (f *Fabric) String() string {
	return fmt.Sprintf("mcnt: streams=%d data=%d ctl=%d bytes=%d resent=%d nacks=%d probes=%d",
		len(f.streams), f.DataFrames, f.CtlFrames, f.BytesSent, f.Resent, f.Nacks, f.Probes)
}

var _ netstack.Conn = (*Conn)(nil)
var _ netstack.Acceptor = (*Listener)(nil)
var _ netstack.Transport = transport{}
