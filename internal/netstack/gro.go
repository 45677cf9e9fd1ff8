package netstack

// GRO implements receive-side coalescing (LRO/GRO): consecutive in-order
// TCP segments of the same flow arriving in one burst are merged into a
// single super-frame before the per-packet receive path runs. This is what
// lets a real 10GbE NIC reach line rate with a 1.5KB MTU, and it is the
// receive-side dual of TSO.
//
// A GRO keeps its scratch across bursts, so once warm it allocates nothing:
// one belongs to each receive path (a NIC's NAPI poll).
type GRO struct {
	flows []groFlow
	// joined[i] is the flow input frame i joined, or -1 for a frame that
	// passes through unchanged; payloads[i] is its TCP payload.
	joined   []int
	payloads [][]byte
	out      []Frame
}

// groFlow is one merged output frame: the headers of its first segment and
// the running state of the segments appended to it.
type groFlow struct {
	meta    lroMeta
	bytes   int // merged payload bytes
	nextSeq uint32
	lastAck uint32
	lastWnd uint32
	flags   uint8
	// open: the flow's latest bucket, still taking segments. A sequence
	// gap or the size bound closes it, and the flow's next segment opens
	// a new one.
	open  bool
	order int // position in the output
	fill  int // payload bytes copied in while building
}

// Coalesce merges the frames of one burst. Frames that are not TCP/IPv4,
// have unexpected flags (SYN/FIN/RST/URG) or carry no payload pass through
// unchanged; data segments of one flow merge while their sequence numbers
// are contiguous and the merged payload stays within maxBytes. GRO keeps
// one open bucket per flow, so frames of different flows interleaved by a
// switch still coalesce. The output keeps each frame or bucket at the
// position of its first frame.
//
// Every data segment, merged or alone, is rebuilt into one buffer from the
// frame pool of s: a Pooled output with ChecksumOK set, because its
// headers were just written and checksummed from the bytes it carries. A
// frame that passes through is output as it came in. Coalesce takes the
// Pooled inputs it rebuilds and recycles them; the caller owns every
// output. The returned slice is reused by the next call. A burst of one
// frame is returned as it is.
func (g *GRO) Coalesce(s *Stack, frames []Frame, maxBytes int) []Frame {
	g.out = g.out[:0]
	if len(frames) <= 1 {
		g.out = append(g.out, frames...)
		return g.out
	}
	g.flows, g.joined, g.payloads = g.flows[:0], g.joined[:0], g.payloads[:0]
	for _, fr := range frames {
		meta, ok := lroParse(fr.Data)
		if !ok {
			g.joined = append(g.joined, -1)
			g.payloads = append(g.payloads, nil)
			g.out = append(g.out, fr)
			continue
		}
		g.payloads = append(g.payloads, meta.payload)
		f := g.openFlow(meta)
		if f >= 0 && (meta.th.Seq != g.flows[f].nextSeq || g.flows[f].bytes+len(meta.payload) > maxBytes) {
			g.flows[f].open = false
			f = -1
		}
		if f < 0 {
			f = len(g.flows)
			g.flows = append(g.flows, groFlow{
				meta: meta, bytes: len(meta.payload),
				nextSeq: meta.th.Seq + uint32(len(meta.payload)),
				lastAck: meta.th.Ack, lastWnd: meta.th.Window, flags: meta.th.Flags,
				open: true, order: len(g.out),
			})
			g.joined = append(g.joined, f)
			g.out = append(g.out, Frame{}) // built below, once its size is known
			continue
		}
		b := &g.flows[f]
		b.bytes += len(meta.payload)
		b.nextSeq += uint32(len(meta.payload))
		b.lastAck = meta.th.Ack
		b.lastWnd = meta.th.Window
		b.flags |= meta.th.Flags
		g.joined = append(g.joined, f)
	}
	for f := range g.flows {
		b := &g.flows[f]
		g.out[b.order] = Frame{Data: s.GetFrameBuf(lroHeaderBytes + b.bytes), Pooled: true, ChecksumOK: true}
	}
	for i, f := range g.joined {
		if f >= 0 {
			b := &g.flows[f]
			b.fill += copy(g.out[b.order].Data[lroHeaderBytes+b.fill:], g.payloads[i])
			if frames[i].Pooled {
				s.RecycleFrameBuf(frames[i].Data)
			}
		}
	}
	for f := range g.flows {
		b := &g.flows[f]
		b.putHeaders(g.out[b.order].Data)
	}
	clear(g.payloads) // drop the references into the burst's frames
	return g.out
}

// openFlow returns the index of meta's flow's open bucket, or -1.
func (g *GRO) openFlow(meta lroMeta) int {
	for f := range g.flows {
		b := &g.flows[f]
		if b.open && b.meta.ih.Src == meta.ih.Src && b.meta.ih.Dst == meta.ih.Dst &&
			b.meta.th.SrcPort == meta.th.SrcPort && b.meta.th.DstPort == meta.th.DstPort {
			return f
		}
	}
	return -1
}

// lroHeaderBytes is the header length of a coalesced frame.
const lroHeaderBytes = EthHeaderBytes + IPv4HeaderBytes + TCPHeaderBytes

// putHeaders writes the Ethernet, IPv4 and TCP headers of the merged
// frame, whose payload is already in place: the first segment's addresses,
// IPv4 ID, TTL and sequence number, the last segment's ACK and window, and
// the union of the flags. DF is the first segment's, as Linux GRO keeps
// it. The TCP checksum is filled in although the receiving stack does not
// verify it (ChecksumOK): a tap sees the field.
func (b *groFlow) putHeaders(frame []byte) {
	m := &b.meta
	PutEth(frame, m.eh)
	PutIPv4(frame[EthHeaderBytes:], IPv4Header{
		TotalLen: uint16(IPv4HeaderBytes + TCPHeaderBytes + b.bytes),
		ID:       m.ih.ID, DF: m.ih.DF, TTL: m.ih.TTL, Proto: ProtoTCP,
		Src: m.ih.Src, Dst: m.ih.Dst,
	})
	PutTCP(frame[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{
		SrcPort: m.th.SrcPort, DstPort: m.th.DstPort,
		Seq: m.th.Seq, Ack: b.lastAck, Flags: b.flags, Window: b.lastWnd,
	}, m.ih.Src, m.ih.Dst, frame[lroHeaderBytes:])
}

type lroMeta struct {
	eh      EthHeader
	ih      IPv4Header
	th      TCPHeader
	payload []byte
}

func lroParse(frame []byte) (lroMeta, bool) {
	eh, ok := ParseEth(frame)
	if !ok || eh.Type != EtherTypeIPv4 {
		return lroMeta{}, false
	}
	ih, ok := ParseIPv4(frame[EthHeaderBytes:])
	if !ok || ih.Proto != ProtoTCP || int(ih.TotalLen)+EthHeaderBytes > len(frame) {
		return lroMeta{}, false
	}
	tcpSeg := frame[EthHeaderBytes : EthHeaderBytes+int(ih.TotalLen)][IPv4HeaderBytes:]
	th, ok := ParseTCP(tcpSeg)
	if !ok {
		return lroMeta{}, false
	}
	// Only plain data segments coalesce.
	if th.Flags&^(TCPAck|TCPPsh) != 0 {
		return lroMeta{}, false
	}
	payload := tcpSeg[TCPHeaderBytes:]
	if len(payload) == 0 {
		return lroMeta{}, false
	}
	return lroMeta{eh: eh, ih: ih, th: th, payload: payload}, true
}
