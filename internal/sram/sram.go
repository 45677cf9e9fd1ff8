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

import "encoding/binary"

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
type Ring struct {
	data  []byte
	start int
	end   int
}

// NewRing returns a ring with the given capacity in bytes.
func NewRing(capacity int) *Ring {
	if capacity < HeaderBytes+1 {
		panic("sram: ring too small")
	}
	return &Ring{data: make([]byte, capacity)}
}

// Used returns the number of valid bytes between start and end.
func (r *Ring) Used() int {
	d := r.end - r.start
	if d < 0 {
		d += len(r.data)
	}
	return d
}

// Free returns the number of bytes that can still be pushed.
func (r *Ring) Free() int { return len(r.data) - 1 - r.Used() }

// Empty reports whether the ring holds no messages.
func (r *Ring) Empty() bool { return r.start == r.end }

// Push appends one MCN message (length header + payload), following the
// paper's transmit steps: write the message at end, then advance end. It
// returns false — the NETDEV_TX_BUSY case — when there is not enough free
// space.
func (r *Ring) Push(packet []byte) bool {
	need := HeaderBytes + len(packet)
	if need > r.Free() {
		return false
	}
	var hdr [HeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(packet)))
	r.write(r.end, hdr[:])
	r.write((r.end+HeaderBytes)%len(r.data), packet)
	r.end = (r.end + need) % len(r.data)
	return true
}

func stdAlloc(n int) []byte { return make([]byte, n) }

// peekWith returns the payload of the oldest message, in a buffer from
// alloc, without consuming it, or nil if the ring is empty.
func (r *Ring) peekWith(alloc func(int) []byte) []byte {
	if r.Empty() {
		return nil
	}
	var hdr [HeaderBytes]byte
	r.read(r.start, hdr[:])
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	out := alloc(n)
	r.read((r.start+HeaderBytes)%len(r.data), out)
	return out
}

// Pop removes and returns the oldest message payload, or nil if empty.
// This is the receive side's R2-R5 walk: read at start, advance start.
func (r *Ring) Pop() []byte { return r.PopWith(stdAlloc) }

// PopWith is Pop with a caller-supplied buffer allocator — the seam the
// drivers use to land popped messages in recycled frame buffers instead
// of fresh garbage-collected ones. alloc(n) must return a buffer of
// length exactly n; every byte is overwritten.
func (r *Ring) PopWith(alloc func(int) []byte) []byte {
	out := r.peekWith(alloc)
	if out == nil {
		return nil
	}
	r.start = (r.start + HeaderBytes + len(out)) % len(r.data)
	return out
}

func (r *Ring) write(off int, b []byte) {
	n := copy(r.data[off:], b)
	if n < len(b) {
		copy(r.data, b[n:])
	}
}

func (r *Ring) read(off int, b []byte) {
	n := copy(b, r.data[off:])
	if n < len(b) {
		copy(b[n:], r.data)
	}
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
