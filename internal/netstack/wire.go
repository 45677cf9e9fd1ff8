package netstack

import (
	"encoding/binary"
	"math/bits"
)

// This file defines the on-wire formats: Ethernet II frames, IPv4, ICMP,
// UDP and TCP headers, and the Internet checksum. Headers are real bytes so
// that checksum bypass, TSO header replication (steps O1-O4 of Sec. IV-A)
// and forwarding-by-MAC (F1-F4) operate on the same representation Linux
// operates on.

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 { return checksumFold(checksumAdd(0, b)) }

// checksumAdd accumulates b into a running one's-complement sum and
// returns it folded to at most 16 bits. Parts of a logically concatenated
// buffer may be summed separately, each call taking the previous result as
// sum, as long as each part starts at an even offset of the whole
// (RFC 1071 Sec. 2(A)).
//
// The kernel adds big-endian 64-bit words, four per iteration, with the
// carry out of each add fed into the next one. Since 2^64 = 1 mod 2^16-1,
// a carry out of bit 63 is worth 1 in the one's-complement sum, so adding
// it back and folding 64 -> 16 bits gives the same sum as adding 16-bit
// words one at a time (RFC 1071 Sec. 2(C), parallel summation), at any
// length. A nonzero total never folds to zero, so the result matches the
// 16-bit loop's exactly, including the 0x0000/0xFFFF distinction.
func checksumAdd(sum uint32, b []byte) uint32 {
	acc, carry := uint64(sum), uint64(0)
	for len(b) >= 32 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b[8:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(b), carry)
		b = b[8:]
	}
	// At most three 16-bit words and an odd byte are left.
	var tail uint64
	for ; len(b) >= 2; b = b[2:] {
		tail += uint64(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	acc, carry = bits.Add64(acc, tail, carry)
	acc += carry // cannot wrap: after a carry out, acc <= tail
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	return uint32(acc)
}

// checksumFold folds the carries and complements the result.
func checksumFold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Ethernet II framing.
const (
	EthHeaderBytes = 14
	// MinEthPayload is the smallest payload real Ethernet carries. The
	// model does not pad runt frames up to it: a NIC's serialization
	// time charges the frame as built plus preamble, FCS and IFG.
	MinEthPayload = 46
)

// EthHeader is a parsed Ethernet II header.
type EthHeader struct {
	Dst  MAC
	Src  MAC
	Type uint16
}

// PutEth writes an Ethernet header into b (len >= EthHeaderBytes).
func PutEth(b []byte, h EthHeader) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.Type)
}

// ParseEth reads an Ethernet header; ok is false for truncated frames.
func ParseEth(b []byte) (EthHeader, bool) {
	if len(b) < EthHeaderBytes {
		return EthHeader{}, false
	}
	var h EthHeader
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.Type = binary.BigEndian.Uint16(b[12:14])
	return h, true
}

// IPv4 header (20 bytes, no options).
const IPv4HeaderBytes = 20

// IPv4 flag bits (in the flags/fragment-offset word).
const (
	IPFlagDF = 0x4000 // don't fragment
	IPFlagMF = 0x2000 // more fragments
)

// IPv4Header is a parsed IPv4 header.
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Proto    uint8
	Src, Dst IP
	// DF / MF are the fragmentation control flags; FragOff is the
	// fragment offset in bytes (stored on the wire in 8-byte units).
	DF      bool
	MF      bool
	FragOff int
}

// PutIPv4 writes the header into b and fills the checksum field. The
// checksum is always computed functionally (it is free in simulated time);
// the stack charges CPU cycles for it only when checksum processing is
// enabled.
func PutIPv4(b []byte, h IPv4Header) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	fragWord := uint16(h.FragOff / 8)
	if h.DF {
		fragWord |= IPFlagDF
	}
	if h.MF {
		fragWord |= IPFlagMF
	}
	binary.BigEndian.PutUint16(b[6:8], fragWord)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	cs := Checksum(b[:IPv4HeaderBytes])
	binary.BigEndian.PutUint16(b[10:12], cs)
}

// ParseIPv4 reads and validates an IPv4 header.
func ParseIPv4(b []byte) (IPv4Header, bool) {
	if len(b) < IPv4HeaderBytes || b[0] != 0x45 {
		return IPv4Header{}, false
	}
	var h IPv4Header
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	fragWord := binary.BigEndian.Uint16(b[6:8])
	h.DF = fragWord&IPFlagDF != 0
	h.MF = fragWord&IPFlagMF != 0
	h.FragOff = int(fragWord&0x1fff) * 8
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, true
}

// VerifyIPv4Checksum recomputes the header checksum; a valid header sums to
// zero complement.
func VerifyIPv4Checksum(b []byte) bool {
	if len(b) < IPv4HeaderBytes {
		return false
	}
	return Checksum(b[:IPv4HeaderBytes]) == 0
}

// ICMP echo (8-byte header).
const ICMPHeaderBytes = 8

const (
	ICMPEchoReply   = 0
	ICMPEchoRequest = 8
)

// ICMPEcho is a parsed ICMP echo message.
type ICMPEcho struct {
	Type uint8
	ID   uint16
	Seq  uint16
}

// PutICMPEcho writes an echo header + checksum over header and payload.
func PutICMPEcho(b []byte, m ICMPEcho, payloadLen int) {
	b[0] = m.Type
	b[1] = 0
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:6], m.ID)
	binary.BigEndian.PutUint16(b[6:8], m.Seq)
	cs := Checksum(b[:ICMPHeaderBytes+payloadLen])
	binary.BigEndian.PutUint16(b[2:4], cs)
}

// ParseICMPEcho reads an echo header.
func ParseICMPEcho(b []byte) (ICMPEcho, bool) {
	if len(b) < ICMPHeaderBytes {
		return ICMPEcho{}, false
	}
	return ICMPEcho{
		Type: b[0],
		ID:   binary.BigEndian.Uint16(b[4:6]),
		Seq:  binary.BigEndian.Uint16(b[6:8]),
	}, true
}

// UDP header.
const UDPHeaderBytes = 8

// UDPHeader is a parsed UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Len              uint16
}

// PutUDP writes a UDP header (checksum left zero: optional in IPv4).
func PutUDP(b []byte, h UDPHeader) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Len)
	b[6], b[7] = 0, 0
}

// ParseUDP reads a UDP header.
func ParseUDP(b []byte) (UDPHeader, bool) {
	if len(b) < UDPHeaderBytes {
		return UDPHeader{}, false
	}
	return UDPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Len:     binary.BigEndian.Uint16(b[4:6]),
	}, true
}

// TCP header (20 bytes, no options; a fixed window scale of WindowShift is
// assumed on both sides instead of negotiating the option).
const TCPHeaderBytes = 20

// WindowShift is the implicit window scaling applied to the 16-bit window
// field.
const WindowShift = 7

// TCP flags.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCPHeader is a parsed TCP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint32 // descaled byte count
}

// PutTCP writes the header and computes the checksum over the pseudo-header
// and payload.
func PutTCP(b []byte, h TCPHeader, src, dst IP, payload []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = 5 << 4 // data offset
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], uint16(h.Window>>WindowShift))
	b[16], b[17] = 0, 0
	b[18], b[19] = 0, 0
	cs := tcpChecksum(b[:TCPHeaderBytes], src, dst, payload)
	binary.BigEndian.PutUint16(b[16:18], cs)
}

// ParseTCP reads a TCP header.
func ParseTCP(b []byte) (TCPHeader, bool) {
	if len(b) < TCPHeaderBytes {
		return TCPHeader{}, false
	}
	return TCPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13],
		Window:  uint32(binary.BigEndian.Uint16(b[14:16])) << WindowShift,
	}, true
}

// tcpPseudoSum seeds a checksum with the IPv4 pseudo-header fields. The
// 12-byte pseudo-header is never materialized: its words are added to the
// running sum directly.
func tcpPseudoSum(src, dst IP, tcpLen int) uint32 {
	sum := uint32(binary.BigEndian.Uint16(src[0:2])) + uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2])) + uint32(binary.BigEndian.Uint16(dst[2:4]))
	return sum + uint32(ProtoTCP) + uint32(uint16(tcpLen))
}

// tcpChecksum computes the TCP checksum over the pseudo-header, the header
// (checksum field zeroed) and the payload, without assembling them into one
// buffer. hdr must be even-length so the payload stays word-aligned.
func tcpChecksum(hdr []byte, src, dst IP, payload []byte) uint16 {
	sum := tcpPseudoSum(src, dst, len(hdr)+len(payload))
	sum = checksumAdd(sum, hdr)
	sum = checksumAdd(sum, payload)
	return checksumFold(sum)
}

// VerifyTCPChecksum validates a TCP segment against the pseudo-header. The
// stored checksum field (bytes 16-17, skipped below) is excluded from the
// sum exactly as if it were zeroed, with no header copy.
func VerifyTCPChecksum(seg []byte, src, dst IP) bool {
	if len(seg) < TCPHeaderBytes {
		return false
	}
	sum := tcpPseudoSum(src, dst, len(seg))
	sum = checksumAdd(sum, seg[:16])
	sum = checksumAdd(sum, seg[18:TCPHeaderBytes])
	sum = checksumAdd(sum, seg[TCPHeaderBytes:])
	return checksumFold(sum) == binary.BigEndian.Uint16(seg[16:18])
}

// SeqLT and friends implement RFC 793 modular sequence comparison.
func SeqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func SeqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func SeqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }
