package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }

func TestTimelineWindowing(t *testing.T) {
	tl := NewTimeline(ms(1))

	// Stamps before the start clamp into window zero instead of panicking.
	tl.NoteIssued(ms(0))
	if len(tl.Windows()) != 1 || tl.Windows()[0].Issued != 1 {
		t.Fatalf("pre-start stamp not clamped: %+v", tl.Windows())
	}

	// Bucketing: [start, start+1ms) is window 0, the next ms window 1.
	tl.NoteIssued(ms(1))
	tl.NoteIssued(ms(2) - 1)
	tl.NoteIssued(ms(2))
	if w := tl.Windows(); len(w) != 2 || w[0].Issued != 3 || w[1].Issued != 1 {
		t.Fatalf("bucketing: %+v", w)
	}

	// Completions split by the SLO; the window keeps a full HDR.
	tl.NoteComplete(ms(1), 500)
	tl.NoteComplete(ms(1), 50_000) // over the default 40µs objective
	w0 := tl.Windows()[0]
	if w0.Completed != 2 || w0.SLOViol != 1 || w0.Lat.N() != 2 {
		t.Fatalf("completion tallies: %+v", w0)
	}

	// Queue depth keeps a per-window high-water mark.
	tl.QueueDelta(ms(1), 1)
	tl.QueueDelta(ms(1), 1)
	tl.QueueDelta(ms(1), -1)
	if w0.QueueMax != 2 {
		t.Fatalf("queue high-water: %d", w0.QueueMax)
	}
	tl.QueueDelta(ms(2), 1) // depth back to 2, in window 1
	if tl.Windows()[1].QueueMax != 2 {
		t.Fatalf("queue depth not carried across windows: %d", tl.Windows()[1].QueueMax)
	}

	// Counters sum within a window and do not forward-fill.
	tl.Count("c", ms(1), 2)
	tl.Count("c", ms(1), 3)
	if v, ok := tl.series["c"].at(0); !ok || v != 5 {
		t.Fatalf("counter sum: %d %v", v, ok)
	}
	if _, ok := tl.series["c"].at(1); ok {
		t.Fatal("counter forward-filled")
	}
	if tl.seriesSum("c", 0, 5) != 5 {
		t.Fatalf("seriesSum: %d", tl.seriesSum("c", 0, 5))
	}

	// Gauges keep the last sample and forward-fill at render time.
	tl.Sample("g", ms(1), 7)
	tl.Sample("g", ms(1), 4)
	tl.NoteIssued(ms(4)) // grow to window 3 with no further samples
	if v, ok := tl.series["g"].at(3); !ok || v != 4 {
		t.Fatalf("gauge forward-fill: %d %v", v, ok)
	}
	if tl.seriesSum("g", 0, 3) != 0 {
		t.Fatal("gauge leaked into seriesSum")
	}

	if got := tl.SeriesNames(); len(got) != 2 || got[0] != "c" || got[1] != "g" {
		t.Fatalf("series names: %v", got)
	}

	// The JSON render carries the per-window series values.
	js := tl.JSON()
	if js.Windows[3].Series["g"] != 4 {
		t.Fatalf("window 3 series: %+v", js.Windows[3].Series)
	}
	if _, ok := js.Windows[1].Series["c"]; ok {
		t.Fatal("counter rendered in an untouched window")
	}
	if js.StartPs != int64(ms(1)) || js.IntervalPs != int64(sim.Millisecond) {
		t.Fatalf("JSON envelope: %+v", js)
	}
}

// TestTimelineNilSafe pins the zero-perturbation contract's cheapest
// half: every hook on a nil timeline is a no-op, so call sites need no
// guards of their own.
func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.NoteIssued(0)
	tl.NoteComplete(0, 1)
	tl.NoteError(0)
	tl.NoteShed(0)
	tl.NoteRerouted(0)
	tl.NoteFailedOver(0)
	tl.notePhases(0, [NumPhases]sim.Duration{})
	tl.QueueDelta(0, 1)
	tl.Count("x", 0, 1)
	tl.Sample("x", 0, 1)
	tl.McntResent(0, 3)
	tl.McntCreditStall(0)
	tl.AddFault("f", 0, 1)
	tl.SetAdmitEvents(nil)
	tl.Finalize()
}

// fill records n completions of latency latNs into the window holding
// time "at".
func fill(tl *Timeline, at sim.Time, n int, latNs int64) {
	for i := 0; i < n; i++ {
		tl.NoteComplete(at, latNs)
	}
}

// TestBurnMonitorAttribution drives the monitor through a synthetic
// fault episode and checks the full chain: burn computation, the
// firing/resolve state machine, and the incident joined against the
// fault, breaker and transport timelines.
func TestBurnMonitorAttribution(t *testing.T) {
	tl := NewTimeline(0)

	// Windows 0-3 healthy, 4-5 fully violating the 40µs objective, 6-9
	// healthy again.
	for i := int64(0); i < 10; i++ {
		lat := int64(20_000)
		if i == 4 || i == 5 {
			lat = 50_000
		}
		fill(tl, ms(i)+ms(1)/2, 100, lat)
	}
	// Evidence inside the episode: sheds, a reroute, failover reads and
	// transport backpressure.
	tl.NoteShed(ms(4) + 1)
	tl.NoteShed(ms(4) + 2)
	tl.NoteRerouted(ms(5) + 1)
	for i := 0; i < 4; i++ {
		tl.NoteFailedOver(ms(5) + 3)
	}
	tl.McntCreditStall(ms(4) + 5)
	tl.McntResent(ms(5)+5, 3)

	// The injected fault and the breaker's reaction to it.
	faultStart, faultEnd := ms(3)+ms(1)/2, ms(5)+ms(1)/2 // [3.5ms, 5.5ms)
	tl.AddFault("host/mcn3", faultStart, faultEnd)
	tl.SetAdmitEvents([]stats.HealthEvent{
		{Shard: 3, Name: "host/mcn3", T: ms(4) + ms(1)/5, From: "closed", To: "open"},
		{Shard: 3, Name: "host/mcn3", T: ms(6) + ms(1)/10, From: "open", To: "half-open"},
	})
	tl.Finalize()
	tl.Finalize() // idempotent

	alerts := tl.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts: %+v", alerts)
	}
	if alerts[0].State != "firing" || alerts[0].Window != 4 || alerts[0].TPs != int64(ms(5)) {
		t.Fatalf("firing alert: %+v", alerts[0])
	}
	if alerts[1].State != "resolved" || alerts[1].Window != 7 || alerts[1].TPs != int64(ms(8)) {
		t.Fatalf("resolved alert: %+v", alerts[1])
	}

	// Breaker occupancy at window closing edges: open from window 4's
	// edge until the half-open transition lands before window 6's edge.
	wantOpen := []int64{0, 0, 0, 0, 1, 1, 0, 0, 0, 0}
	for i, w := range tl.Windows() {
		if w.BreakersOpen != wantOpen[i] {
			t.Fatalf("window %d breakers open %d, want %d", i, w.BreakersOpen, wantOpen[i])
		}
	}

	incs := tl.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents: %+v", incs)
	}
	inc := incs[0]
	if inc.StartPs != int64(ms(4)) || inc.EndPs != int64(ms(8)) || inc.Windows != 4 {
		t.Fatalf("incident span: %+v", inc)
	}
	if inc.Cause != "host/mcn3 offline" || inc.FaultStartPs != int64(faultStart) {
		t.Fatalf("attribution: %+v", inc)
	}
	// Firing edge 5ms − fault 3.5ms; resolve edge 8ms − fault end 5.5ms.
	if inc.DetectNs != 1.5e6 || inc.RecoverNs != 2.5e6 || inc.BurnNs != 4e6 {
		t.Fatalf("latencies: %+v", inc)
	}
	if inc.BreakerOpenNs != 0.7e6 {
		t.Fatalf("breaker open: %v", inc.BreakerOpenNs)
	}
	if inc.Shed != 2 || inc.Rerouted != 1 || inc.FailoverReads != 4 ||
		inc.CreditStalls != 1 || inc.Resends != 3 {
		t.Fatalf("evidence: %+v", inc)
	}
	if inc.PeakShortBurn != 100 {
		t.Fatalf("peak burn: %v", inc.PeakShortBurn)
	}

	rep := tl.Report()
	for _, want := range []string{
		"window [4.0,8.0]ms", "p99 burn 100.0x", "cause: host/mcn3 offline",
		"breaker open +700.0µs", "failover reads 4", "credit stalls 1",
		"resends 3", "shed 2", "rerouted 1", "detected +1.5ms", "recovered +2.5ms",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestBurnMonitorUnresolved pins the run-end path: a burn still firing
// when the run stops flushes an unrecovered incident, and with no fault
// registered it stays unattributed.
func TestBurnMonitorUnresolved(t *testing.T) {
	tl := NewTimeline(0)
	for i := int64(0); i < 6; i++ {
		lat := int64(20_000)
		if i >= 4 {
			lat = 50_000
		}
		fill(tl, ms(i)+ms(1)/2, 100, lat)
	}
	incs := tl.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents: %+v", incs)
	}
	if incs[0].Cause != "unattributed" || incs[0].RecoverNs != -1 || incs[0].DetectNs != -1 {
		t.Fatalf("unresolved incident: %+v", incs[0])
	}
	if !strings.Contains(tl.Report(), "unrecovered at run end") {
		t.Fatalf("report: %s", tl.Report())
	}

	// A healthy run reports cleanly.
	quiet := NewTimeline(0)
	fill(quiet, ms(0), 100, 20_000)
	if quiet.Report() != "no incidents\n" || len(quiet.Alerts()) != 0 {
		t.Fatalf("quiet run: %q", quiet.Report())
	}
}

// TestTimelineJSONStable pins the artifact's determinism contract: two
// renders of the same timeline are byte-identical, and the envelope
// round-trips as JSON.
func TestTimelineJSONStable(t *testing.T) {
	tl := NewTimeline(ms(1))
	for i := int64(0); i < 5; i++ {
		fill(tl, ms(1+i), 10, 20_000+i)
		tl.Count("mcnt/resent", ms(1+i), i)
		tl.Sample("repl/backlog", ms(1+i), 2*i)
	}
	tl.AddFault("host/mcn3", ms(2), ms(3))

	var a, b bytes.Buffer
	if err := tl.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("timeline JSON not byte-stable across renders")
	}
	var doc TimelineJSON
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("timeline JSON invalid: %v", err)
	}
	if len(doc.Windows) != 5 || doc.Windows[0].Completed != 10 || len(doc.Faults) != 1 {
		t.Fatalf("round-trip: %+v", doc)
	}
	if doc.Windows[4].Series["repl/backlog"] != 8 {
		t.Fatalf("series in JSON: %+v", doc.Windows[4].Series)
	}
}

// --- mcnt correlator under NACK resends ---------------------------------

// fakeMcntConn is the minimal mcnt-shaped connection: it satisfies
// netstack.Conn and exposes the fabric-global stream id BindConn
// duck-types on.
type fakeMcntConn struct{ stream uint32 }

func (c *fakeMcntConn) Send(p *sim.Proc, data []byte) error      { return nil }
func (c *fakeMcntConn) SendN(p *sim.Proc, n int) error           { return nil }
func (c *fakeMcntConn) Recv(p *sim.Proc, buf []byte) (int, bool) { return 0, false }
func (c *fakeMcntConn) RecvN(p *sim.Proc, n int) int             { return 0 }
func (c *fakeMcntConn) Buffered() int                            { return 0 }
func (c *fakeMcntConn) Close(p *sim.Proc)                        {}
func (c *fakeMcntConn) Closed() bool                             { return true }
func (c *fakeMcntConn) Tuple() (netstack.IP, uint16, netstack.IP, uint16) {
	var z netstack.IP
	return z, 0, z, 0
}
func (c *fakeMcntConn) McntStreamID() uint32 { return c.stream }

// mcntFrame synthesizes a full Ethernet+mcnt frame the way the fabric
// puts them on a channel.
func mcntFrame(h mcnt.Header, payload int) []byte {
	h.Len = uint32(payload)
	f := make([]byte, netstack.EthHeaderBytes+mcnt.HeaderBytes+payload)
	netstack.PutEth(f, netstack.EthHeader{Type: mcnt.EtherType})
	mcnt.PutHeader(f[netstack.EthHeaderBytes:], h)
	return f
}

func mcntData(stream, seq, off uint32, payload int) []byte {
	return mcntFrame(mcnt.Header{
		Kind: mcnt.KindData, Flags: mcnt.FlagFromDialer,
		Stream: stream, Seq: seq, Off: off,
	}, payload)
}

// TestMcntCorrelatorNackResend covers the wire correlator on the mcnt
// path: stream-id keyed flows, byte-offset matching, and — the part TCP
// tests cannot reach — go-back-N retransmissions triggered by NACKs,
// which replay identical DATA frames that must not overwrite the first
// observation's stamps.
func TestMcntCorrelatorNackResend(t *testing.T) {
	cip, sip := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 9)
	tr := NewTracer(1, 1, 0)
	f := tr.OpenFlow(cip, 4000, sip, 11211)
	tr.BindConn(&fakeMcntConn{stream: 7}, f)
	if tr.mcntFlows[7] != f {
		t.Fatal("BindConn did not key the flow by stream id")
	}
	// A conn without the duck-typed probe binds nothing (the TCP path).
	tr.BindConn(nil, f)

	// Two requests of 10 and 15 bytes queued on the stream.
	sp1 := tr.Start(sim.Time(1000), 0, 0)
	sp2 := tr.Start(sim.Time(1100), 0, 0)
	f.Queued(sp1, 9, sim.Time(1200), sim.Time(1300))
	f.Queued(sp2, 24, sim.Time(1250), sim.Time(1300))

	// First transmission: frame 1 carries bytes [0,10), frame 2 [10,25).
	tr.Frame(sim.Time(2000), netstack.TapTx, "", mcntData(7, 1, 0, 10))
	tr.Frame(sim.Time(2300), netstack.TapTx, "", mcntData(7, 2, 10, 15))
	if sp1.HostTx != sim.Time(2000) || sp2.HostTx != sim.Time(2300) {
		t.Fatalf("first stamps: %v %v", sp1.HostTx, sp2.HostTx)
	}

	// A NACK forces a go-back-N resend of both frames. The retransmitted
	// DATA frames are byte-identical; the first stamp must win.
	tr.Frame(sim.Time(2600), netstack.TapTx, "", mcntData(7, 1, 0, 10))
	tr.Frame(sim.Time(2650), netstack.TapTx, "", mcntData(7, 2, 10, 15))
	if sp1.HostTx != sim.Time(2000) || sp2.HostTx != sim.Time(2300) {
		t.Fatalf("resend overwrote stamps: %v %v", sp1.HostTx, sp2.HostTx)
	}

	// The channel taps see mcnt frames like any other ring message, and
	// dispatch them on the EtherType the same way.
	tr.Frame(sim.Time(2650), netstack.TapChanPush, "host0/mcn0", mcntData(7, 1, 0, 25))
	if sp1.ChanPush != sim.Time(2650) || sp2.ChanPush != sim.Time(2650) {
		t.Fatalf("ChanPush stamps: %v %v", sp1.ChanPush, sp2.ChanPush)
	}

	// Delivery side: one frame covering both spans' bytes.
	tr.Frame(sim.Time(2700), netstack.TapRx, "", mcntData(7, 1, 0, 25))
	if sp1.DimmRx != sim.Time(2700) || sp2.DimmRx != sim.Time(2700) {
		t.Fatalf("DimmRx stamps: %v %v", sp1.DimmRx, sp2.DimmRx)
	}
	// The retransmit arrives late at the DIMM too; still first-wins.
	tr.Frame(sim.Time(3000), netstack.TapRx, "", mcntData(7, 1, 0, 25))
	if sp1.DimmRx != sim.Time(2700) {
		t.Fatal("resent delivery overwrote DimmRx")
	}

	// Frames the correlator must ignore, none of which may stamp:
	// a control frame (ACK, no payload), a response-direction data frame
	// (FlagFromDialer clear), an unknown stream, a data frame whose bytes
	// miss every pending span, and a frame too short to parse.
	sp3 := tr.Start(sim.Time(3100), 0, 0)
	f.Queued(sp3, 40, sim.Time(3200), sim.Time(3300))
	tr.Frame(sim.Time(3400), netstack.TapTx, "", mcntFrame(mcnt.Header{Kind: mcnt.KindCredit, Stream: 7}, 0))
	tr.Frame(sim.Time(3400), netstack.TapTx, "", mcntFrame(mcnt.Header{Kind: mcnt.KindData, Stream: 7, Seq: 3, Off: 25}, 16))
	tr.Frame(sim.Time(3400), netstack.TapTx, "", mcntData(99, 1, 25, 16))
	tr.Frame(sim.Time(3400), netstack.TapTx, "", mcntData(7, 3, 100, 16))
	short := make([]byte, netstack.EthHeaderBytes+4)
	netstack.PutEth(short, netstack.EthHeader{Type: mcnt.EtherType})
	tr.Frame(sim.Time(3400), netstack.TapTx, "", short)
	if sp3.HostTx != 0 {
		t.Fatalf("ignored frame stamped sp3 at %v", sp3.HostTx)
	}
	// The real frame still lands afterwards.
	tr.Frame(sim.Time(3500), netstack.TapTx, "", mcntData(7, 3, 25, 16))
	if sp3.HostTx != sim.Time(3500) {
		t.Fatalf("sp3.HostTx = %v", sp3.HostTx)
	}

	// IPv4 fragments are ignored on the TCP dispatch path even when the
	// embedded TCP header would match a pending span.
	frag := tcpFrame(cip, sip, 4000, 11211, 1, netstack.TCPAck, make([]byte, 41))
	netstack.PutIPv4(frag[netstack.EthHeaderBytes:], netstack.IPv4Header{
		TotalLen: uint16(len(frag) - netstack.EthHeaderBytes),
		TTL:      64, Proto: netstack.ProtoTCP, Src: cip, Dst: sip, MF: true,
	})
	tr.Frame(sim.Time(3600), netstack.TapChanPush, "", frag)
	if sp3.ChanPush != 0 {
		t.Fatalf("fragment stamped sp3 at %v", sp3.ChanPush)
	}
}
