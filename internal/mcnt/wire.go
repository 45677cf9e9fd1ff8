// Package mcnt is the MCN-native reliable transport: a credit-based
// sliding-window protocol that replaces TCP on memory-channel hops.
//
// The SRAM rings give the transport three properties for free: the
// channel is ordered (FIFO rings, one RPS queue per link for non-IP
// traffic), error-protected (ECC/CRC on the channel — corrupted
// messages are discarded whole, never delivered damaged), and lossless
// except under injected faults (ring writes block rather than drop;
// the only losses are channel-fault discards and carrier-down windows).
// mcnt therefore keeps exactly two mechanisms and drops the rest of
// TCP: per-stream byte credits for flow control, and a per-link
// go-back-N sequence/ack layer whose resend path only ever runs when
// the fault injector is eating frames. No checksums, no congestion
// control, no per-segment ACK clock, no retransmit state machine on
// the fast path.
//
// Framing: every frame is one ring message — a 14-byte Ethernet
// header (EtherType 0x88B6, so the drivers' FastRx hook claims it
// before the IP stack sees it) followed by the fixed 26-byte mcnt
// header and, for data frames, the payload. Many streams multiplex
// over one link; credit is per stream, sequencing per link.
//
// Credit algebra: all counters are cumulative, so every frame is
// idempotent. A sender tracks sentB (bytes ever sent on the stream)
// and grantB (the monotone maximum of the credit fields it has
// received = bytes the receiver has ever consumed); the window
// invariant is sentB-grantB <= Window. A receiver piggybacks its
// cumulative consumed count on every frame it sends on the stream and
// emits a pure credit frame once Window/2 bytes accumulate unannounced.
// Lost credit frames are recovered by later cumulative values, by the
// FIN (which is sequenced and reliable), or — when a sender is
// actually blocked — by an idempotent probe/re-grant exchange.
package mcnt

import "encoding/binary"

// EtherType is the EtherType carrying mcnt frames: the second of the two
// values IEEE 802 reserves for local experimental use.
const EtherType = 0x88B6

// Frame kinds. Data, syn and fin are sequenced (they occupy a slot in
// the link's go-back-N window); credit, nack and probe are idempotent
// control frames sent outside the sequence space.
const (
	KindData   = 1 // payload bytes for a stream
	KindSyn    = 2 // opens a stream; Off carries the listen port
	KindFin    = 3 // closes the sender's direction of a stream
	KindCredit = 4 // pure credit/ack return
	KindNack   = 5 // receiver saw a sequence gap: resend from Ack+1
	KindProbe  = 6 // blocked sender soliciting a credit re-grant
)

// FlagFromDialer marks frames sent by the stream's dialing side. The
// observability correlator uses it to stamp only request-path frames.
const FlagFromDialer = 0x01

// HeaderBytes is the fixed mcnt header size (after the Ethernet
// header).
const HeaderBytes = 26

// MaxData bounds one data frame's payload. One frame is one ring
// message; 8KB stays well under the SRAM ring while amortizing the
// per-message driver cost.
const MaxData = 8 << 10

// DefaultWindow is the per-stream credit window in bytes.
const DefaultWindow = 32 << 10

// Header is the wire header present on every mcnt frame.
//
//	[0]     kind
//	[1]     flags
//	[2:6]   stream id
//	[6:10]  seq     (link-level, sequenced kinds only, starts at 1)
//	[10:14] ack     (cumulative: highest in-order seq received on the
//	                 reverse direction of this link; on every frame)
//	[14:18] credit  (cumulative bytes the sender of this frame has
//	                 consumed on this stream; on every frame)
//	[18:22] off     (data: stream byte offset of the payload's first
//	                 byte; syn: the listen port being dialed)
//	[22:26] len     (payload bytes following the header; data only)
//
// All multi-byte fields are little-endian. The cumulative counters are
// 64-bit internally and truncated to 32 bits on the wire; receivers
// reconstruct them by signed-delta advance, which is unambiguous while
// fewer than 2^31 bytes (or frames) are in flight — the window bounds
// in-flight data to a few KB.
type Header struct {
	Kind   uint8
	Flags  uint8
	Stream uint32
	Seq    uint32
	Ack    uint32
	Credit uint32
	Off    uint32
	Len    uint32
}

// Wire offsets of the patchable cumulative fields (relative to the
// start of the mcnt header). Resent frames get these rewritten to
// current values: both are monotone, so the patch is always safe.
const (
	ackOff    = 10
	creditOff = 14
)

// PutHeader encodes h into b[0:HeaderBytes].
func PutHeader(b []byte, h Header) {
	b[0] = h.Kind
	b[1] = h.Flags
	binary.LittleEndian.PutUint32(b[2:], h.Stream)
	binary.LittleEndian.PutUint32(b[6:], h.Seq)
	binary.LittleEndian.PutUint32(b[10:], h.Ack)
	binary.LittleEndian.PutUint32(b[14:], h.Credit)
	binary.LittleEndian.PutUint32(b[18:], h.Off)
	binary.LittleEndian.PutUint32(b[22:], h.Len)
}

// ParseFrame decodes and validates one mcnt frame body (the bytes
// after the Ethernet header). It returns the header, the payload
// (aliasing b) and whether the frame is well-formed. It never panics
// on arbitrary input — this is the fuzz surface.
func ParseFrame(b []byte) (Header, []byte, bool) {
	if len(b) < HeaderBytes {
		return Header{}, nil, false
	}
	h := Header{
		Kind:   b[0],
		Flags:  b[1],
		Stream: binary.LittleEndian.Uint32(b[2:]),
		Seq:    binary.LittleEndian.Uint32(b[6:]),
		Ack:    binary.LittleEndian.Uint32(b[10:]),
		Credit: binary.LittleEndian.Uint32(b[14:]),
		Off:    binary.LittleEndian.Uint32(b[18:]),
		Len:    binary.LittleEndian.Uint32(b[22:]),
	}
	if h.Kind < KindData || h.Kind > KindProbe {
		return Header{}, nil, false
	}
	if h.Flags&^uint8(FlagFromDialer) != 0 {
		return Header{}, nil, false
	}
	sequenced := h.Kind == KindData || h.Kind == KindSyn || h.Kind == KindFin
	if sequenced == (h.Seq == 0) {
		// Sequenced kinds start at seq 1; control kinds carry seq 0.
		return Header{}, nil, false
	}
	if h.Kind != KindData {
		if h.Len != 0 {
			return Header{}, nil, false
		}
		if h.Kind == KindSyn && h.Off > 0xFFFF {
			return Header{}, nil, false // listen ports are 16-bit
		}
		return h, nil, true
	}
	if h.Len == 0 || h.Len > MaxData {
		return Header{}, nil, false
	}
	if uint64(len(b)) < HeaderBytes+uint64(h.Len) {
		return Header{}, nil, false
	}
	return h, b[HeaderBytes : HeaderBytes+int(h.Len)], true
}

// advance64 reconstructs a 64-bit cumulative counter from its 32-bit
// wire truncation: the counter moves forward by the signed delta when
// positive and holds otherwise (stale frames never regress it).
func advance64(cur uint64, wire uint32) uint64 {
	if d := int32(wire - uint32(cur)); d > 0 {
		return cur + uint64(d)
	}
	return cur
}
