package obs

import (
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Phase indexes the eight consecutive segments of one request's life. The
// boundaries telescope: each phase runs from the previous boundary stamp
// to its own, so the phase durations always sum exactly to the measured
// end-to-end latency — the property the attribution table depends on.
type Phase int

const (
	// PhaseClientQueue: generated until a shard connection dequeued it
	// (router queue + pipeline-slot wait).
	PhaseClientQueue Phase = iota
	// PhaseBatchWait: dequeued until its batch flushed into the socket.
	PhaseBatchWait
	// PhaseHostStack: socket write until the segment carrying its last
	// byte left the client's stack toward the device.
	PhaseHostStack
	// PhaseWire: stack egress until the frame was pushed into the DIMM's
	// SRAM RX ring (T1-T3); on a conventional fabric this is NIC + link
	// transit, absorbed into the next stamped boundary.
	PhaseWire
	// PhaseChannelWait: sitting in the SRAM ring until the DIMM driver's
	// IRQ drain popped it — the channel occupancy a full ring exposes.
	PhaseChannelWait
	// PhaseDimmIRQ: popped until the RPS/softirq service handed the frame
	// to the DIMM's network stack.
	PhaseDimmIRQ
	// PhaseDimmService: stack delivery until the kvstore appended the
	// response (TCP rx + parse + DRAM access + respond).
	PhaseDimmService
	// PhaseReturnPath: response appended until the client matched it
	// (server stack tx, channel, host rx, client TCP).
	PhaseReturnPath
	// NumPhases is the phase count.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"ClientQueue", "BatchWait", "HostStack", "Wire",
	"ChannelWait", "DimmIRQ", "DimmService", "ReturnPath",
}

// String returns the phase name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "?"
	}
	return phaseNames[p]
}

// Span is one sampled request's stamp record. Boundary stamps are absolute
// simulated times; 0 means the boundary was never observed (its phase
// collapses to zero width and the time folds into the next stamped one).
type Span struct {
	ID     int64
	Client int
	Shard  int
	Op     byte
	// Seq is the request's FIFO index on its connection — the correlation
	// key for the kvstore's response stamp.
	Seq int64
	// InWindow marks spans whose arrival fell inside the measured window.
	InWindow bool
	// Err marks spans that completed with a non-OK status or failed.
	Err bool
	// OpKind tags a near-memory operator span (an nmop.Kind value); zero
	// for plain GET/SET traffic. Offloaded records the decision layer's
	// pick: true when the operator ran on-DIMM, false when it took the
	// host-side fallback.
	OpKind    byte
	Offloaded bool

	Arrival  sim.Time // generated by the load driver
	Deq      sim.Time // dequeued into a batch
	Sent     sim.Time // batch flushed into the socket
	HostTx   sim.Time // last byte left the client stack
	ChanPush sim.Time // pushed into the SRAM RX ring
	DimmPop  sim.Time // popped by the DIMM IRQ drain
	DimmRx   sim.Time // delivered to the DIMM stack
	Served   sim.Time // kvstore appended the response
	Done     sim.Time // client matched the response

	// wantByte is the request's last byte as a stream offset on its
	// connection; frame correlation matches it against TCP seq ranges.
	wantByte int64
	flow     *Flow
}

// bounds returns the nine boundary stamps in path order.
func (s *Span) bounds() [NumPhases + 1]sim.Time {
	return [NumPhases + 1]sim.Time{
		s.Arrival, s.Deq, s.Sent, s.HostTx, s.ChanPush,
		s.DimmPop, s.DimmRx, s.Served, s.Done,
	}
}

// Breakdown returns the eight phase durations. Unobserved boundaries
// forward-fill from the previous one (zero-width phase) and boundaries
// are clamped monotone, so the durations are non-negative and sum exactly
// to Done-Arrival regardless of which sites stamped.
func (s *Span) Breakdown() [NumPhases]sim.Duration {
	b := s.bounds()
	var out [NumPhases]sim.Duration
	prev := b[0]
	for i := 0; i < int(NumPhases); i++ {
		cur := b[i+1]
		if cur < prev {
			cur = prev // missing (0) or out-of-order stamp: zero width
		}
		out[i] = cur.Sub(prev)
		prev = cur
	}
	return out
}

// Sampler is one load driver's deterministic 1-in-N sampling stream.
// Each driver owns its own stream (named after the driver), so sampling
// decisions are independent of event interleaving across drivers.
type Sampler struct {
	t *Tracer
	r sim.RNG
}

// Next reports whether the driver's next request is sampled.
func (s *Sampler) Next() bool {
	if s == nil || s.t == nil {
		return false
	}
	if s.t.SampleN <= 1 {
		return true
	}
	return s.r.Intn(s.t.SampleN) == 0
}

// flowKey identifies one client->server TCP stream from the client's
// perspective (local ip/port first).
type flowKey struct {
	lip, rip     netstack.IP
	lport, rport uint16
}

// Flow is the tracer's view of one shard connection: the learned initial
// sequence number, the running request count and byte offset of the
// request stream, and the sampled spans still in flight on it.
type Flow struct {
	idx      int // stable per-tracer flow index (Perfetto tid)
	iss      uint32
	issKnown bool
	txBytes  int64
	reqSeq   int64
	pending  []*Span
}

// Queued records one request entering the flow's batch buffer. Every
// request advances the FIFO sequence and byte offset (the server counts
// all of them); only sampled requests (sp != nil) are tracked. lastByte
// is the request's final byte offset within the batch being assembled.
func (f *Flow) Queued(sp *Span, lastByte int64, deq, sent sim.Time) {
	if f == nil {
		return
	}
	seq := f.reqSeq
	f.reqSeq++
	if sp == nil {
		return
	}
	sp.Seq = seq
	sp.Deq = deq
	sp.Sent = sent
	sp.wantByte = f.txBytes + lastByte
	sp.flow = f
	f.pending = append(f.pending, sp)
}

// Advance accounts n stream bytes flushed into the socket.
func (f *Flow) Advance(n int) {
	if f != nil {
		f.txBytes += int64(n)
	}
}

func (f *Flow) drop(sp *Span) {
	for i, p := range f.pending {
		if p == sp {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			return
		}
	}
}

// Tracer is the span plane of one run: it owns the sampled spans, the
// per-flow correlation state, and the per-phase aggregate histograms.
// All entry points are nil-safe no-ops, charge no simulated time, and
// draw randomness only from seeded streams, so attaching a tracer never
// perturbs the simulation.
type Tracer struct {
	// SampleN samples 1 in N requests (<= 1 traces every request).
	SampleN int
	// MaxSpans bounds the retained span list; aggregation continues past
	// the cap and DroppedSpans counts the overflow.
	MaxSpans int

	seed       uint64
	nextID     int64
	flows      map[flowKey]*Flow
	flowList   []*Flow
	pendingISS map[flowKey]uint32
	// mcntFlows keys flows carried by the mcnt transport by its
	// fabric-global stream id (see BindConn in mcnt.go).
	mcntFlows map[uint32]*Flow
	spans     []*Span

	// Phases aggregates the per-phase durations (ns) of completed
	// in-window spans; Total is their end-to-end latency. Phase sums
	// telescope, so Total.Mean() equals the sum of phase means exactly.
	Phases [NumPhases]stats.HDR
	Total  stats.HDR

	// Started/Finished/Aborted count sampled spans; DroppedSpans counts
	// finished spans not retained because MaxSpans was reached.
	Started, Finished, Aborted, DroppedSpans int64

	// tl, when set, receives each finished span's phase breakdown so the
	// timeline can show per-window phase means.
	tl *Timeline
}

// SetTimeline attaches a timeline to receive per-span phase breakdowns
// at completion time (nil detaches).
func (t *Tracer) SetTimeline(tl *Timeline) {
	if t == nil {
		return
	}
	t.tl = tl
}

// NewTracer builds a tracer: sampleN is the 1-in-N sampling rate (<= 1
// traces everything), maxSpans bounds retention (0 = 65536).
func NewTracer(seed uint64, sampleN, maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = 1 << 16
	}
	return &Tracer{
		SampleN:    sampleN,
		MaxSpans:   maxSpans,
		seed:       seed,
		flows:      make(map[flowKey]*Flow),
		pendingISS: make(map[flowKey]uint32),
	}
}

// Sampler derives the named driver's sampling stream from the run seed.
func (t *Tracer) Sampler(name string) *Sampler {
	if t == nil {
		return nil
	}
	return &Sampler{t: t, r: sim.NewRNG(t.seed, "obs/"+name)}
}

// Start opens a span for one sampled request at its generation time.
func (t *Tracer) Start(at sim.Time, client int, op byte) *Span {
	t.nextID++
	t.Started++
	return &Span{ID: t.nextID, Client: client, Shard: -1, Op: op, Arrival: at}
}

// OpenFlow registers one established shard connection under its 4-tuple
// (the client's view: local address first). The initial sequence number
// is pulled from the SYN observed at a stack tap; a flow whose SYN was
// missed still counts requests but skips frame correlation.
func (t *Tracer) OpenFlow(lip netstack.IP, lport uint16, rip netstack.IP, rport uint16) *Flow {
	if t == nil {
		return nil
	}
	key := flowKey{lip: lip, rip: rip, lport: lport, rport: rport}
	f := &Flow{idx: len(t.flowList)}
	if iss, ok := t.pendingISS[key]; ok {
		f.iss, f.issKnown = iss, true
		delete(t.pendingISS, key)
	}
	t.flows[key] = f
	t.flowList = append(t.flowList, f)
	return f
}

// stamp sets the boundary the tap site marks, first observation wins: a
// frame leaving a stack (TapTx) marks HostTx, one entering a stack (TapRx)
// marks DimmRx, and a loopback frame marks both (the fabric phases
// collapse to zero width on a scale-up box).
func (sp *Span) stamp(site netstack.TapSite, at sim.Time) {
	first := func(b *sim.Time) {
		if *b == 0 {
			*b = at
		}
	}
	switch site {
	case netstack.TapTx:
		first(&sp.HostTx)
	case netstack.TapRx:
		first(&sp.DimmRx)
	case netstack.TapLoop:
		first(&sp.HostTx)
		first(&sp.DimmRx)
	case netstack.TapChanPush:
		first(&sp.ChanPush)
	case netstack.TapDimmPop:
		first(&sp.DimmPop)
	}
}

// Frame implements netstack.Tap: it correlates one raw Ethernet frame
// observed at a site back to the sampled spans whose bytes it carries.
// SYN frames teach the tracer each flow's initial sequence number; data
// frames stamp every pending span whose last request byte falls inside
// the segment's range. The parse is allocation-free and the pending lists
// are short (sampled, in-flight spans only), so per-frame cost stays flat.
func (t *Tracer) Frame(at sim.Time, site netstack.TapSite, _ string, frame []byte) {
	if t == nil {
		return
	}
	eth, ok := netstack.ParseEth(frame)
	if !ok {
		return
	}
	if eth.Type == mcnt.EtherType {
		// mcnt frames reach the channel taps like any other ring message,
		// and the fabric's own tap; they correlate by stream id, not TCP
		// seq.
		t.mcntFrame(site, at, frame)
		return
	}
	if eth.Type != netstack.EtherTypeIPv4 {
		return
	}
	ip, ok := netstack.ParseIPv4(frame[netstack.EthHeaderBytes:])
	if !ok || ip.Proto != netstack.ProtoTCP || ip.MF || ip.FragOff != 0 {
		return
	}
	th, ok := netstack.ParseTCP(frame[netstack.EthHeaderBytes+netstack.IPv4HeaderBytes:])
	if !ok {
		return
	}
	key := flowKey{lip: ip.Src, rip: ip.Dst, lport: th.SrcPort, rport: th.DstPort}
	if th.Flags&netstack.TCPSyn != 0 {
		// Learn the ISS: the first data byte of the stream is seq+1.
		if f, ok := t.flows[key]; ok {
			if !f.issKnown {
				f.iss, f.issKnown = th.Seq, true
			}
		} else if _, ok := t.pendingISS[key]; !ok {
			t.pendingISS[key] = th.Seq
		}
		return
	}
	f := t.flows[key]
	if f == nil || !f.issKnown || len(f.pending) == 0 {
		return
	}
	payload := int64(ip.TotalLen) - netstack.IPv4HeaderBytes - netstack.TCPHeaderBytes
	if payload <= 0 {
		return
	}
	// Stream offset of the segment's first byte; runs are far below 4GB
	// of stream so the uint32 difference is exact.
	off := int64(th.Seq - f.iss - 1)
	end := off + payload
	for _, sp := range f.pending {
		if sp.wantByte >= off && sp.wantByte < end {
			sp.stamp(site, at)
		}
	}
}

// ServerMark stamps the service-complete boundary of the request with the
// given FIFO index on the connection from (cip,cport) to (sip,sport) —
// the kvstore server calls this right after appending the response.
func (t *Tracer) ServerMark(cip netstack.IP, cport uint16, sip netstack.IP, sport uint16, reqIdx int64, at sim.Time) {
	if t == nil {
		return
	}
	f := t.flows[flowKey{lip: cip, rip: sip, lport: cport, rport: sport}]
	if f == nil {
		return
	}
	for _, sp := range f.pending {
		if sp.Seq == reqIdx {
			if sp.Served == 0 {
				sp.Served = at
			}
			return
		}
	}
}

// Finish closes a span at its client-side completion and folds it into
// the aggregates. Only ok, in-window spans enter the phase histograms
// (mirroring the serving telemetry's warmup trim).
func (t *Tracer) Finish(sp *Span, at sim.Time, inWindow, ok bool) {
	if t == nil || sp == nil {
		return
	}
	sp.Done = at
	sp.InWindow = inWindow
	sp.Err = !ok
	if sp.flow != nil {
		sp.flow.drop(sp)
	}
	t.Finished++
	if inWindow && ok {
		b := sp.Breakdown()
		for i := range b {
			t.Phases[i].RecordDuration(b[i])
		}
		t.Total.RecordDuration(at.Sub(sp.Arrival))
		t.tl.notePhases(at, b)
	}
	if len(t.spans) < t.MaxSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.DroppedSpans++
	}
}

// Abort discards a span whose request never completed (shed at the
// router, dead connection, stranded in flight at run end).
func (t *Tracer) Abort(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	if sp.flow != nil {
		sp.flow.drop(sp)
	}
	t.Aborted++
}

// Spans returns the retained completed spans in completion order.
func (t *Tracer) Spans() []*Span { return t.spans }
