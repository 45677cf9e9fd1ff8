package netstack

// SegmentTSO performs the NIC-side TCP segmentation offload of Sec. IV-A:
// given one Ethernet frame whose TCP payload exceeds segSize, it produces
// the wire frames the hardware would emit — (O1) divide the payload into
// segSize pieces, (O2) replicate the headers onto each piece, (O3) fix up
// Total Length, sequence numbers and checksums, (O4) emit each packet.
//
// It returns frames ready for transmission; a frame that does not parse as
// TCP/IPv4, or whose payload already fits, is returned unchanged, alone.
// Otherwise the segments are copies, and frame is no longer referenced.
func SegmentTSO(frame []byte, segSize int) [][]byte {
	eth, ok := ParseEth(frame)
	if !ok || eth.Type != EtherTypeIPv4 || segSize <= 0 {
		return [][]byte{frame}
	}
	ip, ok := ParseIPv4(frame[EthHeaderBytes:])
	if !ok || ip.Proto != ProtoTCP {
		return [][]byte{frame}
	}
	ipPkt := frame[EthHeaderBytes:]
	th, ok := ParseTCP(ipPkt[IPv4HeaderBytes:])
	if !ok {
		return [][]byte{frame}
	}
	payload := ipPkt[IPv4HeaderBytes+TCPHeaderBytes : ip.TotalLen]
	if len(payload) <= segSize {
		return [][]byte{frame}
	}

	// Every segment is cut from one allocation: the wire aliases the
	// segments, so they outlive the chunk, which the device may recycle.
	const hdrs = EthHeaderBytes + IPv4HeaderBytes + TCPHeaderBytes
	nseg := (len(payload) + segSize - 1) / segSize
	buf := make([]byte, nseg*hdrs+len(payload))
	out := make([][]byte, 0, nseg)
	for off := 0; off < len(payload); off += segSize {
		end := off + segSize
		last := false
		if end >= len(payload) {
			end = len(payload)
			last = true
		}
		chunk := payload[off:end]
		n := hdrs + len(chunk)
		seg := buf[:n:n]
		buf = buf[n:]
		PutEth(seg, eth)
		PutIPv4(seg[EthHeaderBytes:], IPv4Header{
			TotalLen: uint16(IPv4HeaderBytes + TCPHeaderBytes + len(chunk)),
			ID:       ip.ID + uint16(off/segSize),
			TTL:      ip.TTL, Proto: ProtoTCP, Src: ip.Src, Dst: ip.Dst,
		})
		flags := th.Flags
		if !last {
			flags &^= TCPFin | TCPPsh
		}
		PutTCP(seg[EthHeaderBytes+IPv4HeaderBytes:], TCPHeader{
			SrcPort: th.SrcPort, DstPort: th.DstPort,
			Seq: th.Seq + uint32(off), Ack: th.Ack,
			Flags: flags, Window: th.Window,
		}, ip.Src, ip.Dst, chunk)
		copy(seg[hdrs:], chunk)
		out = append(out, seg)
	}
	return out
}
