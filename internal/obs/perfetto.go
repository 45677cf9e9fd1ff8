package obs

import (
	"fmt"
	"io"
	"sort"

	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Perfetto (Chrome trace-event) export: every retained span becomes one
// whole-request slice on its client's track plus one slice per non-empty
// phase on the track of the component that spent the time. Load the file
// at ui.perfetto.dev (or chrome://tracing) to scrub through a run.
//
// The writer emits JSON manually with fixed field order and %.6f
// microsecond timestamps (sim time is integer picoseconds, so six
// decimals is exact), which keeps the artifact byte-identical across
// replays — the same property every other artifact in this repo has.

// Trace-event process ids, one per component of the request path, plus
// two counter-track processes (registry snapshot, windowed timeline).
const (
	pidClient   = 1 // load drivers: whole request, ClientQueue, BatchWait
	pidHost     = 2 // host TCP stack + return path
	pidChannel  = 3 // MCN SRAM channel: Wire, ChannelWait
	pidDimm     = 4 // DIMM driver + kvstore: DimmIRQ, DimmService
	pidMetrics  = 5 // registry snapshot scalars as counter tracks
	pidTimeline = 6 // per-window timeline series as counter tracks
)

var pidNames = map[int]string{
	pidClient:   "client",
	pidHost:     "host-stack",
	pidChannel:  "mcn-channel",
	pidDimm:     "dimm",
	pidMetrics:  "metrics",
	pidTimeline: "timeline",
}

// phaseTrack maps each phase to the process whose track shows it.
var phaseTrack = [NumPhases]int{
	PhaseClientQueue: pidClient,
	PhaseBatchWait:   pidClient,
	PhaseHostStack:   pidHost,
	PhaseWire:        pidChannel,
	PhaseChannelWait: pidChannel,
	PhaseDimmIRQ:     pidDimm,
	PhaseDimmService: pidDimm,
	PhaseReturnPath:  pidHost,
}

// usec renders a picosecond stamp as exact trace-event microseconds.
func usec(t sim.Time) string {
	return fmt.Sprintf("%.6f", float64(t)/1e6)
}

func usecDur(d sim.Duration) string {
	return fmt.Sprintf("%.6f", float64(d)/1e6)
}

type traceThread struct {
	pid, tid int
	name     string
}

// WritePerfetto renders the retained spans as a Chrome trace-event /
// Perfetto JSON document (spans only; combine with counter tracks via
// PerfettoTrace).
func (t *Tracer) WritePerfetto(w io.Writer) error {
	return PerfettoTrace{Tracer: t}.Write(w)
}

// PerfettoTrace is the combined trace artifact: the sampled request
// spans plus, when present, the metrics-registry snapshot and the
// windowed timeline rendered as Perfetto counter ("C") tracks, so
// slices and counters scrub together in one ui.perfetto.dev session.
// Nil fields are simply omitted; a spans-only PerfettoTrace writes
// byte-for-byte what Tracer.WritePerfetto always wrote.
type PerfettoTrace struct {
	Tracer   *Tracer
	Snapshot *Snapshot
	Timeline *Timeline
}

// Write renders the combined trace-event JSON document. Emission order,
// field order and float formatting are fixed, so the artifact is
// byte-identical across replays of the same seed.
func (pt PerfettoTrace) Write(w io.Writer) error {
	t := pt.Tracer
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	// Collect the threads actually used so metadata is minimal and
	// deterministic: clients on the client process, flows on the host
	// process, shards on the channel and dimm processes.
	threads := map[[2]int]string{}
	for _, sp := range t.spans {
		threads[[2]int{pidClient, sp.Client}] = fmt.Sprintf("client %d", sp.Client)
		flow := 0
		if sp.flow != nil {
			flow = sp.flow.idx
		}
		threads[[2]int{pidHost, flow}] = fmt.Sprintf("flow %d", flow)
		if sp.Shard >= 0 {
			threads[[2]int{pidChannel, sp.Shard}] = fmt.Sprintf("shard %d", sp.Shard)
			threads[[2]int{pidDimm, sp.Shard}] = fmt.Sprintf("shard %d", sp.Shard)
		}
	}
	keys := make([][2]int, 0, len(threads))
	for k := range threads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	bw := &errWriter{w: w}
	bw.printf("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.printf(",")
		}
		first = false
		bw.printf("\n"+format, args...)
	}
	// Metadata: process and thread names. The counter processes only
	// exist when their sources are attached, keeping the spans-only
	// artifact byte-for-byte what it was before counter tracks existed.
	for pid := pidClient; pid <= pidDimm; pid++ {
		emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pid, pidNames[pid])
	}
	if pt.Snapshot != nil {
		emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pidMetrics, pidNames[pidMetrics])
	}
	if pt.Timeline != nil {
		emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pidTimeline, pidNames[pidTimeline])
	}
	for _, k := range keys {
		emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`, k[0], k[1], threads[k])
	}
	for _, sp := range t.spans {
		op := "GET"
		if sp.Op != 0 {
			op = "SET"
		}
		status := "ok"
		if sp.Err {
			status = "err"
		}
		flow := 0
		if sp.flow != nil {
			flow = sp.flow.idx
		}
		// Whole-request slice on the client track. Operator spans carry
		// two extra args (the operator kind and the offload decision);
		// plain GET/SET spans keep the original shape byte-for-byte.
		if sp.OpKind != 0 {
			path := "host"
			if sp.Offloaded {
				path = "dimm"
			}
			kind := nmop.Kind(sp.OpKind).String()
			emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"%s req %d","args":{"shard":%d,"seq":%d,"status":%q,"op":%q,"path":%q}}`,
				pidClient, sp.Client, usec(sp.Arrival), usecDur(sp.Done.Sub(sp.Arrival)), kind, sp.ID, sp.Shard, sp.Seq, status, kind, path)
		} else {
			emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":"%s req %d","args":{"shard":%d,"seq":%d,"status":%q}}`,
				pidClient, sp.Client, usec(sp.Arrival), usecDur(sp.Done.Sub(sp.Arrival)), op, sp.ID, sp.Shard, sp.Seq, status)
		}
		// Per-phase slices on the owning component's track.
		b := sp.Breakdown()
		at := sp.Arrival
		for ph := Phase(0); ph < NumPhases; ph++ {
			d := b[ph]
			if d > 0 {
				pid := phaseTrack[ph]
				tid := 0
				switch pid {
				case pidClient:
					tid = sp.Client
				case pidHost:
					tid = flow
				default:
					tid = sp.Shard
					if tid < 0 {
						tid = 0
					}
				}
				emit(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":{"req":%d}}`,
					pid, tid, usec(at), usecDur(d), ph.String(), sp.ID)
			}
			at = at.Add(d)
		}
	}
	// Registry snapshot: every scalar metric becomes one counter sample
	// at the snapshot's timestamp (sorted name order is the snapshot's
	// own invariant). HDR summaries export their p99.
	if s := pt.Snapshot; s != nil {
		for _, m := range s.Metrics {
			if m.HDR != nil {
				emit(`{"ph":"C","pid":%d,"tid":0,"ts":%s,"name":%q,"args":{"value":%g}}`,
					pidMetrics, usec(sim.Time(s.AtPs)), m.Name+"/p99", m.HDR.P99)
				continue
			}
			emit(`{"ph":"C","pid":%d,"tid":0,"ts":%s,"name":%q,"args":{"value":%d}}`,
				pidMetrics, usec(sim.Time(s.AtPs)), m.Name, m.Value)
		}
	}
	// Timeline: the headline per-window aggregates plus every recorded
	// series, one counter sample per window at its left edge.
	if tl := pt.Timeline; tl != nil {
		tl.Finalize()
		names := tl.SeriesNames()
		for _, tw := range tl.Windows() {
			ts := usec(tl.Start().Add(sim.Duration(tw.Index) * interval))
			cInt := func(name string, v int64) {
				emit(`{"ph":"C","pid":%d,"tid":0,"ts":%s,"name":%q,"args":{"value":%d}}`,
					pidTimeline, ts, name, v)
			}
			cFloat := func(name string, v float64) {
				emit(`{"ph":"C","pid":%d,"tid":0,"ts":%s,"name":%q,"args":{"value":%g}}`,
					pidTimeline, ts, name, v)
			}
			cInt("completed", tw.Completed)
			cInt("errors", tw.Errors)
			cInt("shed", tw.Shed)
			cInt("rerouted", tw.Rerouted)
			cInt("failed_over", tw.FailedOver)
			cInt("slo_violations", tw.SLOViol)
			cInt("queue_max", tw.QueueMax)
			cInt("breakers_open", tw.BreakersOpen)
			cFloat("short_burn", tw.ShortBurn)
			if tw.Lat.N() > 0 {
				cFloat("p99_ns", tw.Lat.Quantile(0.99))
			}
			for _, n := range names {
				if v, ok := tl.series[n].at(tw.Index); ok {
					cInt(n, v)
				}
			}
		}
	}
	bw.printf("\n]}\n")
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Attrib is the aggregate latency attribution of a traced run: the mean
// and tails of each phase over completed in-window spans. Phase
// boundaries telescope, so MeanNs sums across phases to the mean
// end-to-end latency — exactly in picoseconds, to within NumPhases
// nanoseconds here (each phase truncates to whole ns when recorded).
type Attrib struct {
	Phase  string  `json:"phase"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

// Attribution summarizes the per-phase aggregates; the final row is the
// end-to-end total.
func (t *Tracer) Attribution() []Attrib {
	out := make([]Attrib, 0, NumPhases+1)
	for ph := Phase(0); ph < NumPhases; ph++ {
		h := &t.Phases[ph]
		out = append(out, Attrib{
			Phase: ph.String(), MeanNs: h.Mean(), P50Ns: h.Quantile(0.5), P99Ns: h.Quantile(0.99),
		})
	}
	out = append(out, Attrib{
		Phase: "Total", MeanNs: t.Total.Mean(), P50Ns: t.Total.Quantile(0.5), P99Ns: t.Total.Quantile(0.99),
	})
	return out
}
