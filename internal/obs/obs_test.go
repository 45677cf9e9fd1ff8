package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

func TestRegistryScalars(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/reqs")
	c.Add(1)
	c.Add(4)
	if r.Counter("a/reqs") != c {
		t.Fatal("re-registration must return the same counter")
	}
	r.GaugeFunc("a/pull", func() int64 { return 11 })
	var lat stats.HDR
	lat.Record(100)
	lat.Record(300)
	r.RegisterHDR("a/lat", &lat)
	if len(r.byName) != 3 {
		t.Fatalf("registered %d metrics, want 3", len(r.byName))
	}

	s := r.Snapshot(sim.Time(123456))
	if s.AtPs != 123456 {
		t.Fatalf("AtPs = %d", s.AtPs)
	}
	if v, ok := s.Value("a/reqs"); !ok || v != 5 {
		t.Fatalf("a/reqs = %d,%v", v, ok)
	}
	if v, ok := s.Value("a/pull"); !ok || v != 11 {
		t.Fatalf("a/pull = %d,%v", v, ok)
	}
	if _, ok := s.Value("missing"); ok {
		t.Fatal("missing metric reported present")
	}
	// Sorted, deterministic rendering.
	names := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		names[i] = m.Name
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("snapshot not sorted: %v", names)
		}
	}
	var b1, b2 bytes.Buffer
	if err := s.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(sim.Time(123456)).WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("snapshot JSON not deterministic")
	}
	var parsed Snapshot
	if err := json.Unmarshal(b1.Bytes(), &parsed); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if !strings.Contains(s.String(), "a/lat") {
		t.Fatal("table rendering missing HDR row")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.GaugeFunc("x", func() int64 { return 0 })
}

func TestSamplerRateAndDeterminism(t *testing.T) {
	tr := NewTracer(42, 8, 0)
	hits := 0
	s := tr.Sampler("gen/0/0")
	for i := 0; i < 8000; i++ {
		if s.Next() {
			hits++
		}
	}
	if hits < 800 || hits > 1200 {
		t.Fatalf("1-in-8 sampler hit %d/8000", hits)
	}
	// Same seed and stream name, same decisions.
	s2 := NewTracer(42, 8, 0).Sampler("gen/0/0")
	s3 := tr.Sampler("gen/0/0")
	for i := 0; i < 1000; i++ {
		a, b := s2.Next(), s3.Next()
		if a != b {
			t.Fatalf("sampler diverged at %d", i)
		}
	}
	// SampleN <= 1 traces everything; a nil sampler traces nothing.
	always := NewTracer(1, 1, 0).Sampler("x")
	if !always.Next() {
		t.Fatal("SampleN=1 must sample")
	}
	var nilS *Sampler
	if nilS.Next() {
		t.Fatal("nil sampler sampled")
	}
}

func TestBreakdownTelescopes(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }
	sp := &Span{
		Arrival: us(10), Deq: us(11), Sent: us(12), HostTx: us(13),
		ChanPush: us(15), DimmPop: us(16), DimmRx: us(17), Served: us(20), Done: us(25),
	}
	b := sp.Breakdown()
	var sum sim.Duration
	for _, d := range b {
		sum += d
	}
	if sum != sp.Done.Sub(sp.Arrival) {
		t.Fatalf("sum %v != end-to-end %v", sum, sp.Done.Sub(sp.Arrival))
	}
	if b[PhaseChannelWait] != sim.Duration(sim.Microsecond) {
		t.Fatalf("ChannelWait = %v", b[PhaseChannelWait])
	}

	// Missing boundaries forward-fill: a 10gbe-style span with no channel
	// stamps still telescopes, the missing phases at zero width.
	sp2 := &Span{Arrival: us(10), Deq: us(11), Sent: us(12), HostTx: us(14), Served: us(20), Done: us(24)}
	b2 := sp2.Breakdown()
	sum = 0
	for _, d := range b2 {
		sum += d
	}
	if sum != sp2.Done.Sub(sp2.Arrival) {
		t.Fatalf("forward-fill sum %v != %v", sum, sp2.Done.Sub(sp2.Arrival))
	}
	if b2[PhaseWire] != 0 || b2[PhaseChannelWait] != 0 || b2[PhaseDimmIRQ] != 0 {
		t.Fatalf("missing phases not zero-width: %v", b2)
	}
	if b2[PhaseDimmService] != sim.Duration(6*sim.Microsecond) {
		t.Fatalf("DimmService absorbed wrong width: %v", b2[PhaseDimmService])
	}

	// Out-of-order stamps clamp monotone instead of going negative.
	sp3 := &Span{Arrival: us(10), Deq: us(12), Sent: us(11), Done: us(13)}
	for _, d := range sp3.Breakdown() {
		if d < 0 {
			t.Fatalf("negative phase: %v", sp3.Breakdown())
		}
	}
	if PhaseWire.String() != "Wire" || Phase(99).String() != "?" {
		t.Fatal("phase names")
	}
}

// tcpFrame synthesizes a full Ethernet+IPv4+TCP frame the way the stack
// puts them on the wire.
func tcpFrame(src, dst netstack.IP, sport, dport uint16, seq uint32, flags uint8, payload []byte) []byte {
	n := netstack.EthHeaderBytes + netstack.IPv4HeaderBytes + netstack.TCPHeaderBytes + len(payload)
	f := make([]byte, n)
	netstack.PutEth(f, netstack.EthHeader{Type: netstack.EtherTypeIPv4})
	netstack.PutIPv4(f[netstack.EthHeaderBytes:], netstack.IPv4Header{
		TotalLen: uint16(n - netstack.EthHeaderBytes),
		TTL:      64, Proto: netstack.ProtoTCP, Src: src, Dst: dst,
	})
	netstack.PutTCP(f[netstack.EthHeaderBytes+netstack.IPv4HeaderBytes:], netstack.TCPHeader{
		SrcPort: sport, DstPort: dport, Seq: seq, Flags: flags,
	}, src, dst, payload)
	copy(f[netstack.EthHeaderBytes+netstack.IPv4HeaderBytes+netstack.TCPHeaderBytes:], payload)
	return f
}

func TestFrameCorrelation(t *testing.T) {
	cip, sip := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 2)
	tr := NewTracer(1, 1, 0)

	// SYN observed before the flow opens (the tap sees the handshake
	// while Connect is still blocked) teaches the ISS via pendingISS.
	iss := uint32(1)
	tr.Frame(sim.Time(100), netstack.TapTx, "", tcpFrame(cip, sip, 4000, 11211, iss, netstack.TCPSyn, nil))
	f := tr.OpenFlow(cip, 4000, sip, 11211)
	if !f.issKnown || f.iss != iss {
		t.Fatalf("ISS not learned: %+v", f)
	}
	if f.idx != 0 {
		t.Fatalf("flow index %d", f.idx)
	}

	// Two requests of 10 bytes each queued into one batch.
	sp1 := tr.Start(sim.Time(1000), 0, 0)
	sp2 := tr.Start(sim.Time(1100), 0, 0)
	f.Queued(sp1, 9, sim.Time(1200), sim.Time(1300))
	f.Queued(nil, 14, sim.Time(1200), sim.Time(1300)) // unsampled rides along
	f.Queued(sp2, 24, sim.Time(1250), sim.Time(1300))
	f.Advance(25)
	if sp1.Seq != 0 || sp2.Seq != 2 {
		t.Fatalf("seq %d,%d", sp1.Seq, sp2.Seq)
	}

	// A segment carrying stream bytes [0,20) covers sp1's last byte only.
	// First data byte of the stream is seq iss+1.
	tr.Frame(sim.Time(2000), netstack.TapTx, "", tcpFrame(cip, sip, 4000, 11211, iss+1, netstack.TCPAck, make([]byte, 20)))
	if sp1.HostTx != sim.Time(2000) {
		t.Fatalf("sp1.HostTx = %v", sp1.HostTx)
	}
	if sp2.HostTx != 0 {
		t.Fatalf("sp2 stamped early: %v", sp2.HostTx)
	}
	// The rest of the batch; a retransmit must not overwrite sp1.
	tr.Frame(sim.Time(2100), netstack.TapChanPush, "", tcpFrame(cip, sip, 4000, 11211, iss+21, netstack.TCPAck, make([]byte, 5)))
	tr.Frame(sim.Time(2200), netstack.TapTx, "", tcpFrame(cip, sip, 4000, 11211, iss+1, netstack.TCPAck, make([]byte, 25)))
	if sp1.HostTx != sim.Time(2000) {
		t.Fatal("retransmit overwrote first stamp")
	}
	if sp2.HostTx != sim.Time(2200) || sp2.ChanPush != sim.Time(2100) {
		t.Fatalf("sp2 stamps: %v %v", sp2.HostTx, sp2.ChanPush)
	}

	// The channel sites stamp their own boundaries.
	tr.Frame(sim.Time(2300), netstack.TapDimmPop, "", tcpFrame(cip, sip, 4000, 11211, iss+1, netstack.TCPAck, make([]byte, 25)))
	if sp1.DimmPop != sim.Time(2300) || sp2.DimmPop != sim.Time(2300) {
		t.Fatalf("DimmPop stamps: %v %v", sp1.DimmPop, sp2.DimmPop)
	}
	tr.Frame(sim.Time(2250), netstack.TapChanPush, "", tcpFrame(cip, sip, 4000, 11211, iss+1, netstack.TCPAck, make([]byte, 10)))
	if sp1.ChanPush != sim.Time(2250) {
		t.Fatalf("sp1.ChanPush = %v", sp1.ChanPush)
	}

	// Server-side FIFO index matches the span's sequence.
	tr.ServerMark(cip, 4000, sip, 11211, 0, sim.Time(3000))
	tr.ServerMark(cip, 4000, sip, 11211, 1, sim.Time(3100)) // the unsampled one
	tr.ServerMark(cip, 4000, sip, 11211, 2, sim.Time(3200))
	if sp1.Served != sim.Time(3000) || sp2.Served != sim.Time(3200) {
		t.Fatalf("Served: %v %v", sp1.Served, sp2.Served)
	}

	// Finishing removes the spans from the flow and aggregates them.
	tr.Finish(sp1, sim.Time(4000), true, true)
	tr.Finish(sp2, sim.Time(4100), true, true)
	if len(f.pending) != 0 {
		t.Fatalf("pending not drained: %d", len(f.pending))
	}
	if tr.Total.N() != 2 || len(tr.Spans()) != 2 {
		t.Fatalf("aggregates: n=%d spans=%d", tr.Total.N(), len(tr.Spans()))
	}

	// Frames the tracer must ignore: non-IP, fragments, pure ACKs,
	// unknown flows.
	tr.Frame(1, netstack.TapTx, "", []byte{1, 2, 3})
	arp := tcpFrame(cip, sip, 4000, 11211, 5, 0, nil)
	netstack.PutEth(arp, netstack.EthHeader{Type: netstack.EtherTypeARP})
	tr.Frame(1, netstack.TapTx, "", arp)
	tr.Frame(1, netstack.TapTx, "", tcpFrame(sip, cip, 11211, 4000, 9, netstack.TCPAck, make([]byte, 4)))
	tr.ServerMark(cip, 4000, sip, 9999, 0, 1) // unknown flow
}

func TestTracerLifecycleAndLimits(t *testing.T) {
	tr := NewTracer(3, 1, 2) // retain at most 2 spans
	f := tr.OpenFlow(netstack.IPv4(1, 1, 1, 1), 1, netstack.IPv4(2, 2, 2, 2), 2)
	for i := 0; i < 4; i++ {
		sp := tr.Start(sim.Time(i*1000), 0, 0)
		f.Queued(sp, int64(i*10+9), sim.Time(i*1000+1), sim.Time(i*1000+2))
		tr.Finish(sp, sim.Time(i*1000+500), true, true)
	}
	if len(tr.Spans()) != 2 || tr.DroppedSpans != 2 {
		t.Fatalf("retention: %d spans, %d dropped", len(tr.Spans()), tr.DroppedSpans)
	}
	if tr.Total.N() != 4 {
		t.Fatal("aggregation must continue past the retention cap")
	}
	sp := tr.Start(sim.Time(9000), 0, 0)
	f.Queued(sp, 99, 9001, 9002)
	tr.Abort(sp)
	if tr.Aborted != 1 || len(f.pending) != 0 {
		t.Fatalf("abort: %d aborted, %d pending", tr.Aborted, len(f.pending))
	}
	// Errored and out-of-window spans are retained but not aggregated.
	spErr := tr.Start(10000, 0, 0)
	tr.Finish(spErr, 10100, true, false)
	spWarm := tr.Start(10200, 0, 0)
	tr.Finish(spWarm, 10300, false, true)
	if tr.Total.N() != 4 {
		t.Fatalf("err/warmup spans aggregated: n=%d", tr.Total.N())
	}

	// Nil-safety of every entry point tracing-off code hits.
	var nilT *Tracer
	nilT.Frame(0, netstack.TapTx, "", nil)
	nilT.ServerMark(netstack.IP{}, 0, netstack.IP{}, 0, 0, 0)
	nilT.Finish(nil, 0, true, true)
	nilT.Abort(nil)
	if nilT.OpenFlow(netstack.IP{}, 0, netstack.IP{}, 0) != nil {
		t.Fatal("nil tracer opened a flow")
	}
	var nilF *Flow
	nilF.Queued(nil, 0, 0, 0)
	nilF.Advance(10)
}

func TestTapSites(t *testing.T) {
	cip, sip := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 2)
	mk := func() (*Tracer, *Span) {
		tr := NewTracer(1, 1, 0)
		tr.Frame(1, netstack.TapTx, "", tcpFrame(cip, sip, 5, 6, 1, netstack.TCPSyn, nil))
		f := tr.OpenFlow(cip, 5, sip, 6)
		sp := tr.Start(10, 0, 0)
		f.Queued(sp, 7, 11, 12)
		return tr, sp
	}
	data := tcpFrame(cip, sip, 5, 6, 2, netstack.TCPAck, make([]byte, 8))

	// Each site stamps exactly its own boundary, in path order, and
	// Taps fans every frame out to each tap in turn.
	var seen []string
	tr, sp := mk()
	tap := netstack.Taps{tr, tapFunc(func(site netstack.TapSite, dev string) {
		seen = append(seen, site.String()+"@"+dev)
	})}
	stamps := func() []sim.Time {
		return []sim.Time{sp.HostTx, sp.ChanPush, sp.DimmPop, sp.DimmRx}
	}
	steps := []struct {
		site netstack.TapSite
		want []sim.Time
	}{
		{netstack.TapTx, []sim.Time{100, 0, 0, 0}},
		{netstack.TapChanPush, []sim.Time{100, 200, 0, 0}},
		{netstack.TapDimmPop, []sim.Time{100, 200, 300, 0}},
		{netstack.TapRx, []sim.Time{100, 200, 300, 400}},
	}
	for i, s := range steps {
		now := sim.Time(100 * (i + 1))
		tap.Frame(now, s.site, "eth0", data)
		if got := stamps(); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("after %v: HostTx/ChanPush/DimmPop/DimmRx = %v, want %v", s.site, got, s.want)
		}
	}
	// First observation wins at every site.
	tap.Frame(900, netstack.TapTx, "eth0", data)
	if sp.HostTx != 100 {
		t.Fatalf("second tx overwrote HostTx: %v", sp.HostTx)
	}
	if want := []string{"tx@eth0", "push@eth0", "pop@eth0", "rx@eth0", "tx@eth0"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("fan-out saw %v, want %v", seen, want)
	}

	// Loopback stamps both ends at once (scale-up box: no fabric).
	tr2, sp2 := mk()
	tr2.Frame(300, netstack.TapLoop, "lo", data)
	if sp2.HostTx != 300 || sp2.DimmRx != 300 || sp2.ChanPush != 0 || sp2.DimmPop != 0 {
		t.Fatalf("lo: %v %v %v %v", sp2.HostTx, sp2.ChanPush, sp2.DimmPop, sp2.DimmRx)
	}
	// The sites the tracer has no boundary for stamp nothing.
	tr3, sp3 := mk()
	for site := netstack.TapDimmPush; site <= netstack.TapDMARx; site++ {
		tr3.Frame(500, site, site.String(), data)
	}
	if sp3.HostTx != 0 || sp3.ChanPush != 0 || sp3.DimmPop != 0 || sp3.DimmRx != 0 {
		t.Fatalf("NIC/return-channel sites stamped: %v %v %v %v", sp3.HostTx, sp3.ChanPush, sp3.DimmPop, sp3.DimmRx)
	}
	if netstack.TapSite(99).String() != "?" {
		t.Fatal("unknown site name")
	}
}

type tapFunc func(site netstack.TapSite, dev string)

func (f tapFunc) Frame(_ sim.Time, site netstack.TapSite, dev string, _ []byte) { f(site, dev) }

func TestWritePerfettoSchema(t *testing.T) {
	cip, sip := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 2)
	tr := NewTracer(1, 1, 0)
	tr.Frame(1, netstack.TapTx, "", tcpFrame(cip, sip, 5, 6, 1, netstack.TCPSyn, nil))
	f := tr.OpenFlow(cip, 5, sip, 6)
	us := func(n int64) sim.Time { return sim.Time(n * int64(sim.Microsecond)) }
	sp := tr.Start(us(1), 2, 0)
	sp.Shard = 3
	f.Queued(sp, 9, us(2), us(3))
	sp.HostTx, sp.ChanPush, sp.DimmPop, sp.DimmRx, sp.Served = us(4), us(5), us(6), us(7), us(8)
	tr.Finish(sp, us(9), true, true)
	spErr := tr.Start(us(10), 2, 1)
	tr.Finish(spErr, us(11), true, false)

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, buf.String())
	}
	var meta, slices int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if e.Dur <= 0 || e.Pid < pidClient || e.Pid > pidDimm {
				t.Fatalf("bad slice: %+v", e)
			}
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if meta == 0 || slices == 0 {
		t.Fatalf("meta=%d slices=%d", meta, slices)
	}
	// 1 whole-request + 8 phases for the stamped span; the errored span
	// adds its whole-request slice plus one phase — with no boundary
	// stamped, forward-fill telescopes its whole latency into the final
	// ReturnPath phase.
	if slices != 1+int(NumPhases)+2 {
		t.Fatalf("slices = %d", slices)
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := tr.WritePerfetto(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Perfetto output not deterministic")
	}
	if err := (*Tracer)(nil).WritePerfetto(&buf); err == nil {
		t.Fatal("nil tracer must error")
	}
	if len(tr.Attribution()) != int(NumPhases)+1 {
		t.Fatal("attribution rows")
	}
}
