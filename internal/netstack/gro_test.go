package netstack

import (
	"bytes"
	"testing"
)

// coalesce runs one burst of frames that are not pooled through a fresh
// GRO drawing on a fresh pool.
func coalesce(frames [][]byte, maxBytes int) [][]byte {
	var g GRO
	in := make([]Frame, len(frames))
	for i, fr := range frames {
		in[i] = Frame{Data: fr}
	}
	var out [][]byte
	for _, f := range g.Coalesce(&Stack{pool: new(framePool)}, in, maxBytes) {
		out = append(out, f.Data)
	}
	return out
}

// refCoalesceTCP is the map-and-append coalescer GRO replaced, kept as the
// reference FuzzGROMatchesReference holds GRO's bytes to: one bucket per
// flow in a map, payloads grown by append, and every bucket rebuilt into a
// fresh frame.
func refCoalesceTCP(frames [][]byte, maxBytes int) [][]byte {
	if len(frames) <= 1 {
		return frames
	}
	type bucket struct {
		meta    lroMeta
		payload []byte
		nextSeq uint32
		lastAck uint32
		lastWnd uint32
		flags   uint8
		order   int
	}
	type flowKey struct {
		src, dst         IP
		srcPort, dstPort uint16
	}
	buckets := make(map[flowKey]*bucket)
	var all []*bucket
	out := map[int][]byte{}
	order := 0
	for _, fr := range frames {
		meta, ok := lroParse(fr)
		if !ok {
			out[order] = fr
			order++
			continue
		}
		key := flowKey{meta.ih.Src, meta.ih.Dst, meta.th.SrcPort, meta.th.DstPort}
		b := buckets[key]
		if b != nil && (meta.th.Seq != b.nextSeq || len(b.payload)+len(meta.payload) > maxBytes) {
			b = nil
		}
		if b == nil {
			b = &bucket{
				meta: meta, payload: append([]byte{}, meta.payload...),
				nextSeq: meta.th.Seq + uint32(len(meta.payload)),
				lastAck: meta.th.Ack, lastWnd: meta.th.Window, flags: meta.th.Flags,
				order: order,
			}
			order++
			buckets[key] = b
			all = append(all, b)
			continue
		}
		b.payload = append(b.payload, meta.payload...)
		b.nextSeq += uint32(len(meta.payload))
		b.lastAck = meta.th.Ack
		b.lastWnd = meta.th.Window
		b.flags |= meta.th.Flags
	}
	for _, b := range all {
		m := b.meta
		merged := make([]byte, EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes+len(b.payload))
		PutEth(merged, m.eh)
		PutIPv4(merged[EthHeaderBytes:], IPv4Header{
			TotalLen: uint16(IPv4HeaderBytes + TCPHeaderBytes + len(b.payload)),
			ID:       m.ih.ID, DF: m.ih.DF, TTL: m.ih.TTL, Proto: ProtoTCP,
			Src: m.ih.Src, Dst: m.ih.Dst,
		})
		PutTCP(merged[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{
			SrcPort: m.th.SrcPort, DstPort: m.th.DstPort,
			Seq: m.th.Seq, Ack: b.lastAck, Flags: b.flags, Window: b.lastWnd,
		}, m.ih.Src, m.ih.Dst, b.payload)
		copy(merged[EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes:], b.payload)
		out[b.order] = merged
	}
	res := make([][]byte, order)
	for i := range res {
		res[i] = out[i]
	}
	return res
}

// FuzzGROMatchesReference feeds the same bursts to one long-lived GRO,
// whose built frames go back to its pool after every burst (stale bytes
// included), and to refCoalesceTCP, and requires byte-identical output.
// Each input byte is one frame: bits 0-1 pick the flow, bit 2 leaves a
// sequence gap, bits 3-4 pick data, data+PSH, a SYN or a pure ACK, and
// bits 5-7 the payload size. A zero byte ends a burst.
func FuzzGROMatchesReference(f *testing.F) {
	f.Add([]byte{0x20, 0x20, 0x21, 0x21, 0x28, 0x20})       // two flows interleaved, PSH
	f.Add([]byte{0xe0, 0xe0, 0xe0, 0x00, 0x60, 0x64, 0x60}) // size bound, then a gap
	f.Add([]byte{0x30, 0x20, 0x38, 0x22, 0x00, 0x23})       // SYN and pure ACK pass through, lone frame
	f.Fuzz(func(t *testing.T, in []byte) {
		src := [4]IP{IPv4(1, 1, 1, 1), IPv4(3, 3, 3, 3), IPv4(1, 1, 1, 1), IPv4(4, 4, 4, 4)}
		var seq [4]uint32
		var g GRO
		s := &Stack{pool: new(framePool)}
		for len(in) > 0 {
			var burst [][]byte
			for len(in) > 0 && in[0] != 0 {
				b := in[0]
				in = in[1:]
				fl := b & 3
				if b&4 != 0 {
					seq[fl] += 7
				}
				var flags uint8
				n := int(b>>5) * 700
				switch b >> 3 & 3 {
				case 0:
					flags = TCPAck
				case 1:
					flags = TCPAck | TCPPsh
				case 2:
					flags = TCPSyn
				case 3:
					flags, n = TCPAck, 0
				}
				pay := make([]byte, n)
				for i := range pay {
					pay[i] = byte(seq[fl]) + byte(i)
				}
				burst = append(burst, mkSeg(src[fl], IPv4(2, 2, 2, 2), 10+uint16(fl), 20, seq[fl], pay, flags))
				seq[fl] += uint32(n)
			}
			if len(in) > 0 {
				in = in[1:]
			}
			want := refCoalesceTCP(burst, 2800)
			// The inputs are pooled: GRO recycles the ones it rebuilds.
			in := make([]Frame, len(burst))
			for i, fr := range burst {
				in[i] = Frame{Data: fr, Pooled: true}
			}
			got := g.Coalesce(s, in, 2800)
			if len(got) != len(want) {
				t.Fatalf("%d frames out, reference %d", len(got), len(want))
			}
			for i, f := range got {
				if !bytes.Equal(f.Data, want[i]) {
					t.Fatalf("frame %d differs from the reference", i)
				}
				passed := false
				for _, fr := range burst {
					passed = passed || &fr[0] == &f.Data[0]
				}
				if built := len(burst) > 1 && f.ChecksumOK; built == passed || !f.Pooled {
					t.Fatalf("frame %d: built=%v, passed through=%v, pooled=%v", i, built, passed, f.Pooled)
				}
				s.RecycleFrameBuf(f.Data)
			}
		}
	})
}

// mkSeg builds one TCP data frame for GRO tests, with DF set as the stack
// sends TCP.
func mkSeg(src, dst IP, sport, dport uint16, seq uint32, payload []byte, flags uint8) []byte {
	f := make([]byte, EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes+len(payload))
	PutEth(f, EthHeader{Dst: NewMAC(1), Src: NewMAC(2), Type: EtherTypeIPv4})
	PutIPv4(f[EthHeaderBytes:], IPv4Header{
		TotalLen: uint16(IPv4HeaderBytes + TCPHeaderBytes + len(payload)),
		DF:       true, TTL: 64, Proto: ProtoTCP, Src: src, Dst: dst,
	})
	PutTCP(f[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{
		SrcPort: sport, DstPort: dport, Seq: seq, Flags: flags, Window: 1 << 16,
	}, src, dst, payload)
	copy(f[EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes:], payload)
	return f
}

func groPayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	ih, ok := ParseIPv4(frame[EthHeaderBytes:])
	if !ok {
		t.Fatal("bad IPv4 in merged frame")
	}
	return frame[EthHeaderBytes+IPv4HeaderBytes+TCPHeaderBytes : EthHeaderBytes+int(ih.TotalLen)]
}

func TestGROMergesContiguousSameFlow(t *testing.T) {
	src, dst := IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2)
	a := bytes.Repeat([]byte{'a'}, 1000)
	b := bytes.Repeat([]byte{'b'}, 1000)
	c := bytes.Repeat([]byte{'c'}, 1000)
	frames := [][]byte{
		mkSeg(src, dst, 10, 20, 100, a, TCPAck),
		mkSeg(src, dst, 10, 20, 1100, b, TCPAck),
		mkSeg(src, dst, 10, 20, 2100, c, TCPAck|TCPPsh),
	}
	out := coalesce(frames, 64<<10)
	if len(out) != 1 {
		t.Fatalf("merged into %d frames, want 1", len(out))
	}
	got := groPayload(t, out[0])
	if ih, _ := ParseIPv4(out[0][EthHeaderBytes:]); !ih.DF {
		t.Fatal("DF from the segments lost")
	}
	want := append(append(append([]byte{}, a...), b...), c...)
	if !bytes.Equal(got, want) {
		t.Fatal("merged payload corrupted")
	}
	th, _ := ParseTCP(out[0][EthHeaderBytes+IPv4HeaderBytes:])
	if th.Seq != 100 {
		t.Fatalf("merged seq=%d", th.Seq)
	}
	if th.Flags&TCPPsh == 0 {
		t.Fatal("PSH from the last segment lost")
	}
	if !VerifyTCPChecksum(out[0][EthHeaderBytes+IPv4HeaderBytes:], src, dst) {
		t.Fatal("merged frame checksum invalid")
	}
}

func TestGROMergesInterleavedFlows(t *testing.T) {
	// Two flows interleaved by a switch must each coalesce — the case
	// that breaks adjacency-only LRO.
	s1, s2, dst := IPv4(1, 1, 1, 1), IPv4(3, 3, 3, 3), IPv4(2, 2, 2, 2)
	pay := bytes.Repeat([]byte{'x'}, 500)
	frames := [][]byte{
		mkSeg(s1, dst, 10, 20, 0, pay, TCPAck),
		mkSeg(s2, dst, 11, 20, 0, pay, TCPAck),
		mkSeg(s1, dst, 10, 20, 500, pay, TCPAck),
		mkSeg(s2, dst, 11, 20, 500, pay, TCPAck),
		mkSeg(s1, dst, 10, 20, 1000, pay, TCPAck),
		mkSeg(s2, dst, 11, 20, 1000, pay, TCPAck),
	}
	out := coalesce(frames, 64<<10)
	if len(out) != 2 {
		t.Fatalf("got %d frames, want 2 (one per flow)", len(out))
	}
	for _, f := range out {
		if got := len(groPayload(t, f)); got != 1500 {
			t.Fatalf("merged payload %d bytes, want 1500", got)
		}
	}
}

func TestGROSeqGapBreaksMerge(t *testing.T) {
	src, dst := IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2)
	pay := bytes.Repeat([]byte{'x'}, 100)
	frames := [][]byte{
		mkSeg(src, dst, 10, 20, 0, pay, TCPAck),
		mkSeg(src, dst, 10, 20, 500, pay, TCPAck), // gap: 100 != 500
	}
	out := coalesce(frames, 64<<10)
	if len(out) != 2 {
		t.Fatalf("a sequence gap must not merge; got %d frames", len(out))
	}
}

func TestGROControlFlagsPassThrough(t *testing.T) {
	src, dst := IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2)
	pay := bytes.Repeat([]byte{'x'}, 100)
	syn := mkSeg(src, dst, 10, 20, 0, nil, TCPSyn)
	data := mkSeg(src, dst, 10, 20, 1, pay, TCPAck)
	out := coalesce([][]byte{syn, data}, 64<<10)
	if len(out) != 2 {
		t.Fatalf("SYN must not coalesce; got %d frames", len(out))
	}
	if th, _ := ParseTCP(out[0][EthHeaderBytes+IPv4HeaderBytes:]); th.Flags&TCPSyn == 0 {
		t.Fatal("SYN frame reordered or lost")
	}
}

func TestGRORespectsMaxBytes(t *testing.T) {
	src, dst := IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2)
	pay := bytes.Repeat([]byte{'x'}, 1000)
	var frames [][]byte
	for i := 0; i < 5; i++ {
		frames = append(frames, mkSeg(src, dst, 10, 20, uint32(i*1000), pay, TCPAck))
	}
	out := coalesce(frames, 2500)
	// 1000+1000 fits, +1000 exceeds 2500 -> groups of 2,2,1.
	if len(out) != 3 {
		t.Fatalf("got %d frames, want 3", len(out))
	}
}

func TestGROPreservesDeterministicOrder(t *testing.T) {
	src1, src2, dst := IPv4(1, 1, 1, 1), IPv4(3, 3, 3, 3), IPv4(2, 2, 2, 2)
	pay := bytes.Repeat([]byte{'x'}, 100)
	frames := [][]byte{
		mkSeg(src2, dst, 11, 20, 0, pay, TCPAck),
		mkSeg(src1, dst, 10, 20, 0, pay, TCPAck),
	}
	for i := 0; i < 10; i++ {
		out := coalesce(frames, 64<<10)
		ih0, _ := ParseIPv4(out[0][EthHeaderBytes:])
		if ih0.Src != src2 {
			t.Fatal("first-seen flow must come out first, every time")
		}
	}
}
