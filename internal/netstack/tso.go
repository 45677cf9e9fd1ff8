package netstack

// SegmentTSO performs the NIC-side TCP segmentation offload of Sec. IV-A,
// one wire segment at a time: given one Ethernet frame whose TCP payload
// exceeds segSize, it (O1) takes the segSize piece of the payload that
// starts at offset off, (O2) replicates the headers onto it, (O3) fixes up
// Total Length, sequence number and checksums, and (O4) returns the
// packet with the offset of the next piece, 0 after the last. Cutting
// from off 0 until next is 0 yields the frames the hardware would emit.
//
// Each segment is a buffer from s's frame pool, which the caller owns.
// A frame that does not parse as TCP/IPv4, or whose payload already fits,
// is its own only segment: SegmentTSO returns frame itself and 0.
func SegmentTSO(s *Stack, frame []byte, segSize, off int) (seg []byte, next int) {
	eth, ok := ParseEth(frame)
	if !ok || eth.Type != EtherTypeIPv4 || segSize <= 0 {
		return frame, 0
	}
	ip, ok := ParseIPv4(frame[EthHeaderBytes:])
	if !ok || ip.Proto != ProtoTCP {
		return frame, 0
	}
	ipPkt := frame[EthHeaderBytes:]
	th, ok := ParseTCP(ipPkt[IPv4HeaderBytes:])
	if !ok {
		return frame, 0
	}
	payload := ipPkt[IPv4HeaderBytes+TCPHeaderBytes : ip.TotalLen]
	if len(payload) <= segSize {
		return frame, 0
	}

	const hdrs = EthHeaderBytes + IPv4HeaderBytes + TCPHeaderBytes
	next = off + segSize
	flags := th.Flags
	if next >= len(payload) {
		next = 0
	} else {
		flags &^= TCPFin | TCPPsh
	}
	chunk := payload[off : off+min(segSize, len(payload)-off)]
	seg = s.GetFrameBuf(hdrs + len(chunk))
	PutEth(seg, eth)
	PutIPv4(seg[EthHeaderBytes:], IPv4Header{
		TotalLen: uint16(IPv4HeaderBytes + TCPHeaderBytes + len(chunk)),
		ID:       ip.ID + uint16(off/segSize),
		TTL:      ip.TTL, Proto: ProtoTCP, Src: ip.Src, Dst: ip.Dst,
	})
	PutTCP(seg[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{
		SrcPort: th.SrcPort, DstPort: th.DstPort,
		Seq: th.Seq + uint32(off), Ack: th.Ack,
		Flags: flags, Window: th.Window,
	}, ip.Src, ip.Dst, chunk)
	copy(seg[hdrs:], chunk)
	return seg, next
}
