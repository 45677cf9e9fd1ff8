package obs

import (
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// BindConn registers a connection's transport-level correlation identity
// with its flow. TCP connections need nothing here — they are keyed by
// 4-tuple and the ISS learned from the SYN at a stack tap. An mcnt
// connection has no TCP sequence space, so the tracer keys it by the
// transport's fabric-global stream id instead; the duck-typed probe
// keeps obs free of a hard dependency on any one Conn implementation.
func (t *Tracer) BindConn(conn netstack.Conn, f *Flow) {
	if t == nil || f == nil {
		return
	}
	mc, ok := conn.(interface{ McntStreamID() uint32 })
	if !ok {
		return
	}
	if t.mcntFlows == nil {
		t.mcntFlows = make(map[uint32]*Flow)
	}
	t.mcntFlows[mc.McntStreamID()] = f
}

// mcntFrame correlates one mcnt frame observed at a site back to the
// sampled spans whose bytes it carries. Only data frames sent by the
// stream's dialer (the request direction) stamp; the header's Off field
// is the payload's stream byte offset, so the match against each pending
// span's last request byte is exact — no ISS learning, and resent frames
// re-stamp idempotently (first observation wins).
func (t *Tracer) mcntFrame(site netstack.TapSite, at sim.Time, frame []byte) {
	h, _, ok := mcnt.ParseFrame(frame[netstack.EthHeaderBytes:])
	if !ok || h.Kind != mcnt.KindData || h.Flags&mcnt.FlagFromDialer == 0 {
		return
	}
	f := t.mcntFlows[h.Stream]
	if f == nil || len(f.pending) == 0 {
		return
	}
	off := int64(h.Off)
	end := off + int64(h.Len)
	for _, sp := range f.pending {
		if sp.wantByte >= off && sp.wantByte < end {
			sp.stamp(site, at)
		}
	}
}
