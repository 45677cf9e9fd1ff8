package netstack

import (
	"bytes"
	"testing"
)

// fuzzIPs are the fixed pseudo-header endpoints the TCP targets use.
var fuzzSrc = IPv4(192, 168, 1, 1)
var fuzzDst = IPv4(192, 168, 1, 2)

// FuzzParseEth: arbitrary bytes never panic; a successful parse
// re-encodes to the identical header bytes.
func FuzzParseEth(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EthHeaderBytes-1))
	seed := make([]byte, EthHeaderBytes+4)
	PutEth(seed, EthHeader{
		Dst:  MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		Src:  MAC{2, 0, 0, 0, 0, 1},
		Type: EtherTypeIPv4,
	})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, ok := ParseEth(b)
		if ok != (len(b) >= EthHeaderBytes) {
			t.Fatalf("ok=%v with %d bytes", ok, len(b))
		}
		if !ok {
			return
		}
		re := make([]byte, EthHeaderBytes)
		PutEth(re, h)
		if !bytes.Equal(re, b[:EthHeaderBytes]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", re, b[:EthHeaderBytes])
		}
	})
}

// FuzzParseIPv4: arbitrary bytes never panic; a successful parse
// re-encodes to a header equal in every field, with a checksum that
// verifies (PutIPv4 always recomputes it).
func FuzzParseIPv4(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x46, 0, 0, 0}) // wrong IHL: must be rejected
	seed := make([]byte, IPv4HeaderBytes)
	PutIPv4(seed, IPv4Header{
		TotalLen: 40, ID: 7, TTL: 64, Proto: ProtoTCP,
		Src: fuzzSrc, Dst: fuzzDst, DF: true,
	})
	f.Add(seed)
	frag := make([]byte, IPv4HeaderBytes)
	PutIPv4(frag, IPv4Header{
		TotalLen: 60, ID: 9, TTL: 1, Proto: ProtoUDP,
		Src: fuzzSrc, Dst: fuzzDst, MF: true, FragOff: 64,
	})
	f.Add(frag)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, ok := ParseIPv4(b)
		if !ok {
			if len(b) >= IPv4HeaderBytes && b[0] == 0x45 {
				t.Fatal("rejected a well-formed version/IHL byte")
			}
			return
		}
		re := make([]byte, IPv4HeaderBytes)
		PutIPv4(re, h)
		if !VerifyIPv4Checksum(re) {
			t.Fatal("PutIPv4 produced an invalid checksum")
		}
		h2, ok2 := ParseIPv4(re)
		if !ok2 {
			t.Fatal("re-encoded header does not parse")
		}
		// The checksum is recomputed and not part of the parsed header;
		// every field must round-trip exactly.
		if h != h2 {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", h2, h)
		}
	})
}

// FuzzParseTCP: arbitrary bytes never panic; a successful parse
// re-encodes to a header equal in every field. The 16-bit window field
// carries an implicit WindowShift scale, so a parsed Window is always a
// multiple of 1<<WindowShift and survives the round trip exactly.
func FuzzParseTCP(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, TCPHeaderBytes-1))
	seed := make([]byte, TCPHeaderBytes)
	PutTCP(seed, TCPHeader{
		SrcPort: 33001, DstPort: 11211, Seq: 1, Ack: 2,
		Flags: TCPSyn | TCPAck, Window: 64 << 10,
	}, fuzzSrc, fuzzDst, nil)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, ok := ParseTCP(b)
		if ok != (len(b) >= TCPHeaderBytes) {
			t.Fatalf("ok=%v with %d bytes", ok, len(b))
		}
		if !ok {
			return
		}
		if h.Window%(1<<WindowShift) != 0 {
			t.Fatalf("descaled window %d is not a multiple of %d", h.Window, 1<<WindowShift)
		}
		re := make([]byte, TCPHeaderBytes)
		PutTCP(re, h, fuzzSrc, fuzzDst, nil)
		if !VerifyTCPChecksum(re, fuzzSrc, fuzzDst) {
			t.Fatal("PutTCP produced an invalid checksum")
		}
		h2, ok2 := ParseTCP(re)
		if !ok2 {
			t.Fatal("re-encoded header does not parse")
		}
		if h != h2 {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", h2, h)
		}
	})
}

// FuzzTCPEncodeRoundTrip drives the encoder with arbitrary field values
// and checks the decode inverts it (modulo the window's 1<<WindowShift
// wire granularity and 16-bit range) and that the checksum covers the
// payload.
func FuzzTCPEncodeRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), uint32(3), uint32(4), byte(TCPAck), uint32(8192), []byte("payload"))
	f.Add(uint16(33001), uint16(11211), uint32(0xffffffff), uint32(0), byte(TCPFin|TCPAck), uint32(0), []byte(nil))
	f.Fuzz(func(t *testing.T, sport, dport uint16, seq, ack uint32, flags byte, window uint32, payload []byte) {
		if len(payload) > 64<<10 {
			t.Skip()
		}
		h := TCPHeader{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: window}
		b := make([]byte, TCPHeaderBytes)
		PutTCP(b, h, fuzzSrc, fuzzDst, payload)
		seg := append(append([]byte(nil), b...), payload...)
		if !VerifyTCPChecksum(seg, fuzzSrc, fuzzDst) {
			t.Fatal("checksum does not verify over header+payload")
		}
		if len(payload) > 0 {
			seg[len(seg)-1] ^= 0xff
			if VerifyTCPChecksum(seg, fuzzSrc, fuzzDst) {
				t.Fatal("checksum still verifies after payload corruption")
			}
		}
		got, ok := ParseTCP(b)
		if !ok {
			t.Fatal("encoded header does not parse")
		}
		wantWindow := uint32(uint16(window>>WindowShift)) << WindowShift
		if got.SrcPort != sport || got.DstPort != dport || got.Seq != seq ||
			got.Ack != ack || got.Flags != flags || got.Window != wantWindow {
			t.Fatalf("round trip differs: got %+v", got)
		}
	})
}

// FuzzChecksum: the Internet checksum never panics on odd lengths and
// inserting the complement makes the region sum to zero (the RFC 1071
// verification identity, for even-length regions).
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0xff, 0xff, 0x00, 0x01, 0xab})
	f.Fuzz(func(t *testing.T, b []byte) {
		cs := Checksum(b)
		if cs != Checksum(b) {
			t.Fatal("checksum is not deterministic")
		}
		if len(b)%2 == 0 {
			withCs := append(append([]byte(nil), b...), byte(cs>>8), byte(cs))
			if got := Checksum(withCs); got != 0 && cs != 0 {
				t.Fatalf("region + own checksum sums to %#x, want 0", got)
			}
		}
	})
}
