package netstack

import "github.com/mcn-arch/mcn/internal/sim"

// IPv4 fragmentation and reassembly. TCP never needs it (MSS fits the MTU
// and TSO frames are segmented by the device), but ICMP and UDP datagrams
// larger than the MTU must fragment exactly as Linux fragments them — the
// Fig. 8(b)/(c) ping sweep up to 8KB payloads exercises this on the 1.5KB
// MTU configurations.

// fragKey identifies one datagram's fragments (RFC 791).
type fragKey struct {
	src, dst IP
	id       uint16
	proto    uint8
}

type fragBuf struct {
	data     []byte
	received map[int]int // offset -> length
	totalLen int         // payload bytes, known once the last fragment arrives
	expiry   *sim.Timer
}

// fragTimeout discards incomplete datagrams (Linux: 30s; shortened to keep
// simulations snappy while still far above any RTT here).
const fragTimeout = 500 * sim.Millisecond

// maxFragPayload returns the largest multiple-of-8 payload per fragment.
func maxFragPayload(mtu int) int {
	return (mtu - IPv4HeaderBytes) &^ 7
}

// sendFragmented emits payload as a train of IPv4 fragments on ifc.
func (s *Stack) sendFragmented(p *sim.Proc, proto uint8, src, dst IP, payload []byte, ifc *Iface, dstMAC MAC, id uint16) {
	per := maxFragPayload(ifc.Dev.MTU())
	for off := 0; off < len(payload); off += per {
		end := off + per
		mf := true
		if end >= len(payload) {
			end = len(payload)
			mf = false
		}
		chunk := payload[off:end]
		frame := s.GetFrameBuf(EthHeaderBytes + IPv4HeaderBytes + len(chunk))
		PutEth(frame, EthHeader{Dst: dstMAC, Src: ifc.Dev.MAC(), Type: EtherTypeIPv4})
		PutIPv4(frame[EthHeaderBytes:], IPv4Header{
			TotalLen: uint16(IPv4HeaderBytes + len(chunk)),
			ID:       id, TTL: 64, Proto: proto, Src: src, Dst: dst,
			MF: mf, FragOff: off,
		})
		copy(frame[EthHeaderBytes+IPv4HeaderBytes:], chunk)
		s.chargeChecksum(p, IPv4HeaderBytes)
		s.IPTx.Add(s.K.Now(), int64(len(frame)))
		ifc.Dev.Transmit(p, Frame{Data: frame, Pooled: true})
	}
}

// reassemble accepts one fragment and returns the full transport payload
// once every piece has arrived (nil otherwise).
func (s *Stack) reassemble(hdr IPv4Header, body []byte) []byte {
	if s.frags == nil {
		s.frags = make(map[fragKey]*fragBuf)
	}
	key := fragKey{src: hdr.Src, dst: hdr.Dst, id: hdr.ID, proto: hdr.Proto}
	fb, ok := s.frags[key]
	if !ok {
		fb = &fragBuf{received: make(map[int]int)}
		fb.expiry = s.K.NewTimer(func() {
			delete(s.frags, key)
			s.Drops++
		})
		fb.expiry.Reset(fragTimeout)
		s.frags[key] = fb
	}
	end := hdr.FragOff + len(body)
	if end > len(fb.data) {
		grown := make([]byte, end)
		copy(grown, fb.data)
		fb.data = grown
	}
	copy(fb.data[hdr.FragOff:], body)
	fb.received[hdr.FragOff] = len(body)
	if !hdr.MF {
		fb.totalLen = end
	}
	if fb.totalLen == 0 {
		return nil
	}
	covered := 0
	for _, n := range fb.received {
		covered += n
	}
	if covered < fb.totalLen {
		return nil
	}
	fb.expiry.Stop()
	delete(s.frags, key)
	return fb.data[:fb.totalLen]
}
