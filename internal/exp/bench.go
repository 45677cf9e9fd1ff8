// The committed benchmark artifacts and their one drift gate: the
// BENCH_serve.json shape and how it is produced, and CheckArtifact, which
// regenerates whatever a stored artifact (serving or event budget) records
// and walks the two JSON trees leaf by leaf.
package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ServeBench is the BENCH_serve.json shape: the qps-at-SLO headline per
// topology, the full curves behind it, the DIMM-flap fault runs, and the
// near-memory operator headline.
type ServeBench struct {
	Seed     uint64             `json:"seed"`
	SLONs    float64            `json:"slo_p99_ns"`
	QpsAtSLO map[string]float64 `json:"qps_at_slo"`
	Curves   []BenchCurve       `json:"curves"`
	Faults   BenchFaults        `json:"faults"`
	// Ops is omitted by artifacts recorded before the operator subsystem
	// existed, so old files keep parsing.
	Ops *BenchOps `json:"ops,omitempty"`

	// The runs behind the numbers, for the text rendition and the gate's
	// claim checks; not part of the artifact.
	curve *ServeCurveResult
	admit *ServeAdmitResult
	repl  *ServeReplResult
	ops   *ServeOpsResult
}

// BenchCurve is one topology's recorded curve.
type BenchCurve struct {
	Topo   string       `json:"topo"`
	Points []BenchPoint `json:"points"`
}

// BenchPoint is one recorded offered-load point.
type BenchPoint struct {
	OfferedQPS float64 `json:"offered_qps"`
	QPS        float64 `json:"qps"`
	P50Ns      float64 `json:"p50_ns"`
	P99Ns      float64 `json:"p99_ns"`
	P999Ns     float64 `json:"p999_ns"`
	Errors     int64   `json:"errors"`
	Unfinished int64   `json:"unfinished"`
}

// BenchFaults is the fault-window headline: p99 (ns) over a measured
// window containing a 2ms DIMM flap, with admission off, re-routing, and
// shedding, plus the replication off/on A/B on the same flap (misses,
// failover reads, sync-write outcomes, post-run replica convergence).
type BenchFaults struct {
	P99OffNs      float64 `json:"p99_off_ns"`
	P99RerouteNs  float64 `json:"p99_reroute_ns"`
	P99ShedNs     float64 `json:"p99_shed_ns"`
	Rerouted      int64   `json:"rerouted"`
	Shed          int64   `json:"shed"`
	P99ReplOffNs  float64 `json:"p99_repl_off_ns"`
	P99ReplOnNs   float64 `json:"p99_repl_on_ns"`
	MissesReplOff int64   `json:"misses_repl_off"`
	MissesReplOn  int64   `json:"misses_repl_on"`
	ErrorsReplOn  int64   `json:"errors_repl_on"`
	FailoverReads int64   `json:"failover_reads"`
	StaleReads    int64   `json:"stale_reads"`
	SyncAcks      int64   `json:"sync_acks"`
	SyncDegraded  int64   `json:"sync_degraded"`
	Diverged      int     `json:"diverged"`
}

// BenchOps records the serve-ops smoke sweep: per selectivity, the
// filter-family channel bytes of the forced host and on-DIMM paths, the
// savings ratio, and what the calibrated auto mode picked.
type BenchOps struct {
	Topo             string        `json:"topo"`
	Rate             float64       `json:"rate"`
	ChannelNsPerByte float64       `json:"channel_ns_per_byte"`
	Rows             []BenchOpsRow `json:"rows"`
}

// BenchOpsRow is one selectivity of the recorded operator sweep.
type BenchOpsRow struct {
	Selectivity     float64 `json:"selectivity"`
	FilterIssued    int64   `json:"filter_issued"`
	HostFilterBytes int64   `json:"host_filter_bytes"`
	DimmFilterBytes int64   `json:"dimm_filter_bytes"`
	HostOverDimm    float64 `json:"host_over_dimm"`
	AutoOffloaded   int64   `json:"auto_offloaded"`
	AutoHost        int64   `json:"auto_host"`
	HostFilterP99Ns float64 `json:"host_filter_p99_ns"`
	DimmFilterP99Ns float64 `json:"dimm_filter_p99_ns"`
}

// RunServeBench runs the whole serving benchmark at seed — the curve
// sweep (nil rates = the default ladders), the admission and replication
// flap A/Bs, and the operator smoke sweep — and reduces it to the
// artifact. The simulator is deterministic: same seed, same JSON, byte
// for byte.
func RunServeBench(seed uint64, sloNs float64, rates []float64) *ServeBench {
	b := &ServeBench{
		Seed: seed, SLONs: sloNs, QpsAtSLO: map[string]float64{},
		curve: ServeCurve(seed, rates), admit: ServeAdmit(seed), repl: ServeRepl(seed), ops: ServeOpsSmoke(seed),
	}
	b.curve.SLONs = sloNs
	for _, c := range b.curve.Curves {
		b.QpsAtSLO[c.Topo] = c.QpsAtSLO(sloNs)
		bc := BenchCurve{Topo: c.Topo}
		for _, p := range c.Points {
			bc.Points = append(bc.Points, BenchPoint{
				OfferedQPS: p.OfferedQPS, QPS: p.Summary.QPS,
				P50Ns: p.Summary.P50, P99Ns: p.Summary.P99, P999Ns: p.Summary.P999,
				Errors: p.Errors, Unfinished: p.Unfinished,
			})
		}
		b.Curves = append(b.Curves, bc)
	}
	off, on := b.repl.Off.Result, b.repl.On.Result
	b.Faults = BenchFaults{
		P99OffNs: b.admit.P99Off(), P99RerouteNs: b.admit.P99Reroute(), P99ShedNs: b.admit.P99Shed(),
		Rerouted: b.admit.Reroute.Rerouted, Shed: b.admit.Shed.Shed,
		P99ReplOffNs: off.Summary().P99, P99ReplOnNs: on.Summary().P99,
		MissesReplOff: off.Misses, MissesReplOn: on.Misses, ErrorsReplOn: on.Errors,
		FailoverReads: on.ReplCounters.FailoverReads, StaleReads: on.ReplCounters.StaleReads,
		SyncAcks: on.ReplCounters.SyncAcks, SyncDegraded: on.ReplCounters.SyncDegraded,
		Diverged: b.repl.On.Diverged,
	}
	b.Ops = &BenchOps{Topo: b.ops.Topo, Rate: b.ops.Rate, ChannelNsPerByte: b.ops.ChannelNsPerByte}
	for _, row := range b.ops.Rows {
		b.Ops.Rows = append(b.Ops.Rows, BenchOpsRow{
			Selectivity:     row.Selectivity,
			FilterIssued:    row.Host.FilterIssued,
			HostFilterBytes: row.Host.FilterBytes,
			DimmFilterBytes: row.Dimm.FilterBytes,
			HostOverDimm:    row.HostOverDimmBytes(),
			AutoOffloaded:   row.Auto.FilterOffloaded,
			AutoHost:        row.Auto.FilterHost,
			HostFilterP99Ns: row.Host.FilterP99,
			DimmFilterP99Ns: row.Dimm.FilterP99,
		})
	}
	return b
}

// String renders the four experiments behind the artifact.
func (b *ServeBench) String() string {
	return b.curve.String() + "\n" + b.admit.String() + "\n" + b.repl.String() + "\n" + b.ops.String()
}

// CheckArtifact is the drift gate for both committed artifacts. raw is a
// BENCH_serve.json or a BENCH_wallclock.json (told apart by shape); the
// gate regenerates every section the artifact records at the artifact's
// own conditions and compares leaf by leaf (diffJSON), then applies the
// serving artifact's claims that are not leaf equalities: its knee guards
// and operator claims. rates, when non-nil, trims the serving curve sweep
// to a partial ladder; at least one swept rung must be in the artifact.
// notes are progress lines; any drift line is a failure.
func CheckArtifact(raw []byte, seed uint64, rates []float64) (notes, drift []string) {
	got, notes, drift := regenArtifact(raw, seed, rates)
	if got == nil {
		return notes, drift
	}
	leaves, d := diffJSON(got, raw)
	return append(notes, fmt.Sprintf("%d regenerated values compared", leaves)), append(drift, d...)
}

// regenArtifact is CheckArtifact's expensive half: it recognises the
// artifact, refuses one recorded at another seed, and re-runs what it
// records. got is nil when the artifact was refused.
func regenArtifact(raw []byte, seed uint64, rates []float64) (got any, notes, drift []string) {
	var shape struct {
		Seed   uint64
		Curves []json.RawMessage
		Points []json.RawMessage
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		return nil, nil, []string{fmt.Sprintf("bad artifact: %v", err)}
	}
	if shape.Seed != seed {
		return nil, nil, []string{fmt.Sprintf("artifact seed %d, run seed %d — not comparable", shape.Seed, seed)}
	}
	switch {
	case shape.Curves != nil:
		var stored ServeBench
		if err := json.Unmarshal(raw, &stored); err != nil {
			return nil, nil, []string{fmt.Sprintf("bad serving artifact: %v", err)}
		}
		b := RunServeBench(seed, stored.SLONs, rates)
		if stored.Ops == nil {
			b.Ops = nil
		} else {
			for _, bad := range b.ops.Check() {
				drift = append(drift, "ops claim failed: "+bad)
			}
		}
		// The headline is a function of the curve, and the curve's points
		// are gated by the walk, so it is recomputed from the stored curve:
		// that gates it even when a partial ladder was swept.
		for _, c := range stored.Curves {
			b.QpsAtSLO[c.Topo] = c.curve().QpsAtSLO(stored.SLONs)
		}
		n, d := kneeGuards(b.curve)
		return b, n, append(drift, d...)
	case shape.Points != nil:
		return WallBench(seed), nil, nil
	}
	return nil, nil, []string{"artifact has neither curves nor points: not a BENCH_serve.json or BENCH_wallclock.json"}
}

// curve lifts a recorded curve back into the sweep's type.
func (c BenchCurve) curve() ServeTopoCurve {
	out := ServeTopoCurve{Topo: c.Topo}
	for _, p := range c.Points {
		pt := ServePoint{OfferedQPS: p.OfferedQPS, Errors: p.Errors, Unfinished: p.Unfinished}
		pt.Summary.QPS, pt.Summary.P50, pt.Summary.P99, pt.Summary.P999 = p.QPS, p.P50Ns, p.P99Ns, p.P999Ns
		out.Points = append(out.Points, pt)
	}
	return out
}

// kneeGuards applies the two cross-curve claims of the serving artifact
// to a fresh sweep.
func kneeGuards(r *ServeCurveResult) (notes, drift []string) {
	bb := r.Curve("mcn5+batch")
	// Replication overhead guard: the replicated topology's healthy knee
	// must sit within 5% of the batched one's — the async forward path may
	// not tax the primary's serving capacity. The knee is the p99-vs-SLO
	// crossing interpolated between ladder points, not the quantized
	// QpsAtSLO step: on a sparse rate ladder a curve whose p99 grazes the
	// SLO at the top rate would otherwise "lose" a whole ladder step.
	if br := r.Curve("mcn5+batch+repl"); br != nil && bb != nil {
		kr, kb := kneeQps(br, r.SLONs), kneeQps(bb, r.SLONs)
		if kb > 0 && math.Abs(kr-kb) > 0.05*kb {
			drift = append(drift, fmt.Sprintf("replicated knee %.0f strays >5%% from batched knee %.0f", kr, kb))
		} else {
			notes = append(notes, fmt.Sprintf("replicated knee %.0f within 5%% of batched knee %.0f", kr, kb))
		}
	}
	// mcnt transport guard: swapping the memory-channel hops from TCP to
	// the credit-based transport must move the batched knee decisively —
	// at least 15% past the TCP curve's interpolated knee (~2.39M on the
	// recorded ladder). A smaller gap means the per-segment stack cost
	// crept back into the mcnt path. The guard only fires when the TCP
	// curve actually reaches its knee within the swept ladder — on a
	// truncated smoke ladder both curves top out at the same rung and the
	// comparison is meaningless.
	if bm := r.Curve("mcn5+batch+mcnt"); bm != nil && bb != nil {
		crossed := false
		for _, p := range bb.Points {
			if !p.Healthy() || p.Summary.P99 > r.SLONs {
				crossed = true
			}
		}
		km, kb := kneeQps(bm, r.SLONs), kneeQps(bb, r.SLONs)
		switch {
		case !crossed:
			notes = append(notes, "ladder too short to reach the batched TCP knee; mcnt knee guard skipped")
		case kb > 0 && km < 1.15*kb:
			drift = append(drift, fmt.Sprintf("mcnt knee %.0f not >15%% past batched TCP knee %.0f", km, kb))
		default:
			notes = append(notes, fmt.Sprintf("mcnt knee %.0f clears batched TCP knee %.0f by %.0f%%", km, kb, 100*(km-kb)/kb))
		}
	}
	return notes, drift
}

// kneeQps locates where a curve's p99 crosses the SLO, linearly
// interpolated in achieved qps between the bracketing ladder points. A
// curve that never crosses is credited its highest achieved throughput.
func kneeQps(c *ServeTopoCurve, sloNs float64) float64 {
	knee := 0.0
	for i, p := range c.Points {
		if !p.Healthy() {
			break
		}
		if p.Summary.P99 <= sloNs {
			knee = p.Summary.QPS
			continue
		}
		if i > 0 {
			prev := c.Points[i-1].Summary
			if p.Summary.P99 > prev.P99 {
				frac := (sloNs - prev.P99) / (p.Summary.P99 - prev.P99)
				knee = prev.QPS + frac*(p.Summary.QPS-prev.QPS)
			}
		}
		break
	}
	return knee
}

// diffJSON compares a regenerated artifact against the stored file's
// bytes as JSON trees, so every field the writer emits is covered without
// a hand-kept field list. Integers must match exactly (the simulator is
// deterministic); other numbers to a 1e-9 relative float-formatting
// allowance. Array elements are paired by identity (elemID), not index:
// the gate may regenerate a subset of what an artifact records — a
// partial rate ladder — so elements on only one side are skipped, but an
// array with no pair at all is drift. It returns the number of leaves
// compared and one line per drifted JSON path.
func diffJSON(got any, want []byte) (leaves int, drift []string) {
	tree := func(raw []byte) (v any) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		if err := dec.Decode(&v); err != nil {
			drift = append(drift, fmt.Sprintf("bad JSON: %v", err))
		}
		return v
	}
	raw, err := json.Marshal(got)
	if err != nil {
		return 0, []string{fmt.Sprintf("regenerated artifact does not marshal: %v", err)}
	}
	var walk func(path string, g, w any)
	walk = func(path string, g, w any) {
		switch g := g.(type) {
		case map[string]any:
			w, ok := w.(map[string]any)
			if !ok {
				drift = append(drift, fmt.Sprintf("%s: regenerated an object, artifact has %v", path, w))
				return
			}
			keys := make([]string, 0, len(g))
			for k := range g {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				sub := strings.TrimPrefix(path+"."+k, ".")
				if wv, ok := w[k]; !ok {
					drift = append(drift, fmt.Sprintf("%s: regenerated, missing from the artifact", sub))
				} else {
					walk(sub, g[k], wv)
				}
			}
			for k := range w {
				if _, ok := g[k]; !ok {
					drift = append(drift, fmt.Sprintf("%s: in the artifact, not regenerated", strings.TrimPrefix(path+"."+k, ".")))
				}
			}
		case []any:
			w, ok := w.([]any)
			if !ok {
				drift = append(drift, fmt.Sprintf("%s: regenerated an array, artifact has %v", path, w))
				return
			}
			byID := map[string]any{}
			for i, e := range w {
				byID[elemID(i, e)] = e
			}
			paired := 0
			for i, e := range g {
				if we, ok := byID[elemID(i, e)]; ok {
					paired++
					walk(fmt.Sprintf("%s[%s]", path, elemID(i, e)), e, we)
				}
			}
			if paired == 0 {
				drift = append(drift, fmt.Sprintf("%s: no overlapping elements between the regenerated run and the artifact", path))
			}
		default:
			leaves++
			gn, gok := g.(json.Number)
			wn, wok := w.(json.Number)
			if gok && wok && sameNumber(gn, wn) || !gok && !wok && g == w {
				return
			}
			drift = append(drift, fmt.Sprintf("%s: regenerated %v, artifact has %v", path, g, w))
		}
	}
	walk("", tree(raw), tree(want))
	sort.Strings(drift)
	return leaves, drift
}

// elemID names an array element of an artifact by what it measures — the
// topology, the offered rate, the selectivity — so elements pair up
// across a partial regeneration and drift paths read
// "curves[mcn5].points[200000].p99_ns". An element carrying none of
// those is named by its index i.
func elemID(i int, e any) string {
	obj, _ := e.(map[string]any)
	var id []string
	for _, k := range []string{"topo", "offered_qps", "rate_rps", "selectivity"} {
		if v, ok := obj[k]; ok {
			id = append(id, fmt.Sprint(v))
		}
	}
	if id == nil {
		return fmt.Sprint(i)
	}
	return strings.Join(id, "@")
}

// sameNumber compares two JSON number literals: integers exactly, anything
// else to the float-formatting allowance.
func sameNumber(g, w json.Number) bool {
	if g == w {
		return true
	}
	_, gerr := g.Int64()
	_, werr := w.Int64()
	if gerr == nil && werr == nil {
		return false
	}
	gf, _ := g.Float64()
	wf, _ := w.Float64()
	return math.Abs(gf-wf) <= 1e-9*math.Max(math.Abs(gf), math.Abs(wf))
}
