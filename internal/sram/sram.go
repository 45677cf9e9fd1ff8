// Package sram implements the MCN interface's 96KB SRAM communication
// buffer with the layout of Fig. 4 in the paper: a circular TX buffer and a
// circular RX buffer, each described by start/end byte pointers, plus the
// tx-poll and rx-poll handshake fields.
//
// Messages stored in the rings are "MCN messages": a 4-byte length header
// followed by the packet bytes. This framing is what lets MCN carry any MTU
// (Sec. IV-A) — nothing in the ring format assumes 1.5KB Ethernet frames.
//
// The package is a pure data structure; the timing of accesses to it (over
// the host's global memory channel or the MCN processor's interconnect) is
// charged by the driver models in internal/core.
package sram

// DefaultSize is the SRAM buffer capacity used by the paper's MCN
// interface.
const DefaultSize = 96 * 1024

// HeaderBytes is the length-prefix size of an MCN message.
const HeaderBytes = 4

// controlBytes reserves space for the tx/rx pointer and poll fields at the
// head of the SRAM, as in Fig. 4.
const controlBytes = 64

// Ring is one circular MCN buffer with start/end pointers. start points at
// the first valid byte, end one past the last valid byte. One byte of
// capacity is sacrificed to distinguish full from empty, as usual for
// pointer-based rings.
//
// The pointers account every message's bytes exactly as the SRAM holds
// them, but the ring keeps the pushed packet slices themselves rather
// than a byte copy: Push hands the packet buffer to the ring and Pop hands
// it to the consumer. The simulated copy in and out is charged by the
// drivers; the model does not repeat it in host memory.
type Ring struct {
	capacity int
	start    int
	end      int
	// msgs holds the messages between start and end, oldest at head.
	msgs [][]byte
	head int
}

// NewRing returns a ring with the given capacity in bytes.
func NewRing(capacity int) *Ring {
	if capacity < HeaderBytes+1 {
		panic("sram: ring too small")
	}
	return &Ring{capacity: capacity}
}

// Used returns the number of valid bytes between start and end.
func (r *Ring) Used() int {
	d := r.end - r.start
	if d < 0 {
		d += r.capacity
	}
	return d
}

// Free returns the number of bytes that can still be pushed.
func (r *Ring) Free() int { return r.capacity - 1 - r.Used() }

// Empty reports whether the ring holds no messages.
func (r *Ring) Empty() bool { return r.start == r.end }

// Push appends one MCN message (length header + payload), following the
// paper's transmit steps: write the message at end, then advance end. It
// returns false — the NETDEV_TX_BUSY case — when there is not enough free
// space. On success the ring owns packet until Pop returns it: the caller
// must not modify or recycle it.
func (r *Ring) Push(packet []byte) bool {
	need := HeaderBytes + len(packet)
	if need > r.Free() {
		return false
	}
	if r.head > 0 && len(r.msgs) == cap(r.msgs) {
		// Slide the live messages down before growing, so a steady
		// push/pop stream reuses the slot array.
		n := copy(r.msgs, r.msgs[r.head:])
		clear(r.msgs[n:])
		r.msgs, r.head = r.msgs[:n], 0
	}
	if packet == nil {
		packet = []byte{} // nil is Pop's empty-ring result
	}
	r.msgs = append(r.msgs, packet)
	r.end = (r.end + need) % r.capacity
	return true
}

// Pop removes and returns the oldest message payload, or nil if empty.
// This is the receive side's R2-R5 walk: read at start, advance start.
// The caller takes ownership of the returned buffer (the slice Push was
// given).
func (r *Ring) Pop() []byte {
	if r.Empty() {
		return nil
	}
	out := r.msgs[r.head]
	r.msgs[r.head] = nil
	r.head++
	if r.head == len(r.msgs) {
		r.msgs, r.head = r.msgs[:0], 0
	}
	r.start = (r.start + HeaderBytes + len(out)) % r.capacity
	return out
}

// PopWith is Pop with the message copied into a caller-supplied buffer:
// alloc(n) must return a buffer of length exactly n, and every byte is
// overwritten. The pushed buffer is dropped, not handed back.
func (r *Ring) PopWith(alloc func(int) []byte) []byte {
	msg := r.Pop()
	if msg == nil {
		return nil
	}
	out := alloc(len(msg))
	copy(out, msg)
	return out
}

// Buffer is the whole MCN interface SRAM: the TX ring (packets the MCN
// processor is sending toward the host), the RX ring (packets the host has
// delivered to the MCN node), and the two poll flags used for handshaking.
type Buffer struct {
	TX *Ring
	RX *Ring
	// TxPoll is set by the MCN-side driver after enqueueing into TX; the
	// host-side polling agent reads and clears it.
	TxPoll bool
	// RxPoll is set by the host-side driver after enqueueing into RX;
	// the MCN interface turns it into an IRQ to the MCN processor.
	RxPoll bool
}

// New returns a Buffer whose rings split the given SRAM size (control words
// deducted) evenly between TX and RX.
func New(size int) *Buffer {
	if size <= controlBytes+2*(HeaderBytes+1) {
		panic("sram: buffer too small")
	}
	half := (size - controlBytes) / 2
	return &Buffer{TX: NewRing(half), RX: NewRing(half)}
}

// NewDefault returns the 96KB buffer of the paper.
func NewDefault() *Buffer { return New(DefaultSize) }
