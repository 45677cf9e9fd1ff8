package obs

import (
	"encoding/json"
	"io"
	"sort"

	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Timeline is the windowed time-series layer of the observability plane:
// it buckets the serving tier's request outcomes, queue depths, phase
// breakdowns and cross-subsystem counters into fixed sim-time intervals,
// so "what happened at t=12ms" is answerable where the whole-run
// aggregates only answer "what happened on average".
//
// Like the span tracer, the timeline is strictly zero-perturbation: every
// hook charges no simulated time, draws no randomness, and is nil-safe,
// so a timeline-on run's event stream is byte-identical to the
// timeline-off run. All derived analysis (burn rates, alerts, incident
// attribution) happens post-run in Finalize, from per-window integer
// sums — deterministic by construction.
type Timeline struct {
	start sim.Time

	windows []*TimeWindow
	series  map[string]*tlSeries

	curQueue int64

	faults []FaultWindow
	health []stats.HealthEvent
	repl   []stats.ReplEvent

	alerts    []AlertEvent
	incidents []Incident
	finalized bool
}

// The windowing and the burn-rate monitor's settings.
const (
	// interval is the sampling window width in sim time.
	interval = sim.Millisecond
	// SLONs is the per-request latency objective in nanoseconds a
	// completion must beat to stay inside the SLO: the serving tier's
	// 40µs p99 objective.
	SLONs = 40e3
	// budget is the allowed violation fraction: burn rate 1.0 means
	// exactly budget of the window's requests were bad.
	budget = 0.01
	// burnShort and burnLong are the trailing burn-rate evaluation
	// windows: the classic multi-window SLO alert shape scaled to the
	// simulator's millisecond-scale runs.
	burnShort = 2 * sim.Millisecond
	burnLong  = 10 * sim.Millisecond
	// fireBurn and longFire gate alert firing: both the short- and
	// long-window burns must clear their threshold.
	fireBurn = 2.0
	longFire = 0.5
	// clearBurn resolves a firing alert once the short-window burn drops
	// below it.
	clearBurn = 1.0
)

// TimeWindow is one sampling interval's raw tallies.
type TimeWindow struct {
	Index      int
	Issued     int64
	Completed  int64
	Errors     int64
	Shed       int64
	Rerouted   int64
	FailedOver int64
	SLOViol    int64
	Lat        stats.HDR
	QueueMax   int64

	phaseSum [NumPhases]int64 // ns, summed over spans finishing in-window
	phaseN   int64

	// Derived in Finalize.
	ShortBurn, LongBurn float64
	BreakersOpen        int64
}

// tlSeries is one named per-window series: counters sum deltas within a
// window; gauges keep the last sample and forward-fill at render time.
type tlSeries struct {
	gauge bool
	vals  []int64
	set   []bool
}

// NewTimeline builds a timeline whose window zero starts at start
// (normally kernel time at run start).
func NewTimeline(start sim.Time) *Timeline {
	return &Timeline{start: start, series: map[string]*tlSeries{}}
}

// Start returns the timestamp of window zero's left edge.
func (tl *Timeline) Start() sim.Time { return tl.start }

// Windows returns the raw per-interval tallies (valid any time; burn
// fields only after Finalize).
func (tl *Timeline) Windows() []*TimeWindow { return tl.windows }

// win buckets a timestamp, growing the window slice as needed. Stamps
// before start clamp into window zero (they only occur if a caller
// started the timeline late; nothing in-tree does).
func (tl *Timeline) win(at sim.Time) *TimeWindow {
	idx := 0
	if d := at.Sub(tl.start); d > 0 {
		idx = int(d / interval)
	}
	for len(tl.windows) <= idx {
		tl.windows = append(tl.windows, &TimeWindow{Index: len(tl.windows)})
	}
	return tl.windows[idx]
}

// NoteIssued records one request handed to the serving tier.
func (tl *Timeline) NoteIssued(at sim.Time) {
	if tl == nil {
		return
	}
	tl.win(at).Issued++
}

// NoteComplete records one completed request and its end-to-end latency
// in nanoseconds; completions over the SLO count as violations.
func (tl *Timeline) NoteComplete(at sim.Time, latNs int64) {
	if tl == nil {
		return
	}
	w := tl.win(at)
	w.Completed++
	w.Lat.Record(latNs)
	if float64(latNs) > SLONs {
		w.SLOViol++
	}
}

// NoteError records one failed request.
func (tl *Timeline) NoteError(at sim.Time) {
	if tl == nil {
		return
	}
	tl.win(at).Errors++
}

// NoteShed records one admission-shed request.
func (tl *Timeline) NoteShed(at sim.Time) {
	if tl == nil {
		return
	}
	tl.win(at).Shed++
}

// NoteRerouted records one request re-routed off its open shard.
func (tl *Timeline) NoteRerouted(at sim.Time) {
	if tl == nil {
		return
	}
	tl.win(at).Rerouted++
}

// NoteFailedOver records one read served by a backup replica.
func (tl *Timeline) NoteFailedOver(at sim.Time) {
	if tl == nil {
		return
	}
	tl.win(at).FailedOver++
}

// notePhases folds one finished span's phase breakdown into the window
// of its completion (called by the tracer when one is attached).
func (tl *Timeline) notePhases(at sim.Time, b [NumPhases]sim.Duration) {
	if tl == nil {
		return
	}
	w := tl.win(at)
	for ph := Phase(0); ph < NumPhases; ph++ {
		w.phaseSum[ph] += int64(b[ph] / sim.Nanosecond)
	}
	w.phaseN++
}

// QueueDelta tracks the aggregate shard-queue depth: +1 on enqueue, -1
// on dequeue. Each window keeps its high-water mark.
func (tl *Timeline) QueueDelta(at sim.Time, d int64) {
	if tl == nil {
		return
	}
	tl.curQueue += d
	if w := tl.win(at); tl.curQueue > w.QueueMax {
		w.QueueMax = tl.curQueue
	}
}

// Count adds a delta to the named counter series in at's window.
func (tl *Timeline) Count(name string, at sim.Time, d int64) {
	if tl == nil {
		return
	}
	tl.seriesAt(name, at, false, d)
}

// Sample sets the named gauge series to v in at's window (last sample in
// a window wins; unsampled windows forward-fill at render time).
func (tl *Timeline) Sample(name string, at sim.Time, v int64) {
	if tl == nil {
		return
	}
	tl.seriesAt(name, at, true, v)
}

func (tl *Timeline) seriesAt(name string, at sim.Time, gauge bool, v int64) {
	w := tl.win(at)
	s := tl.series[name]
	if s == nil {
		s = &tlSeries{gauge: gauge}
		tl.series[name] = s
	}
	for len(s.vals) <= w.Index {
		s.vals = append(s.vals, 0)
		s.set = append(s.set, false)
	}
	if gauge {
		s.vals[w.Index] = v
	} else {
		s.vals[w.Index] += v
	}
	s.set[w.Index] = true
}

// McntResent records a go-back-N resend burst of n frames.
func (tl *Timeline) McntResent(at sim.Time, n int) {
	tl.Count("mcnt/resent", at, int64(n))
}

// McntCreditStall records one sender blocking on exhausted stream credit.
func (tl *Timeline) McntCreditStall(at sim.Time) {
	tl.Count("mcnt/credit_stalls", at, 1)
}

// AddFault registers one injected fault window for incident attribution.
func (tl *Timeline) AddFault(name string, start, end sim.Time) {
	if tl == nil {
		return
	}
	tl.faults = append(tl.faults, FaultWindow{Name: name, StartPs: int64(start), EndPs: int64(end)})
}

// SetAdmitEvents hands the breaker health timeline over for attribution
// (call after the run, before Finalize).
func (tl *Timeline) SetAdmitEvents(evs []stats.HealthEvent) {
	if tl == nil {
		return
	}
	tl.health = evs
}

// SetReplEvents hands the replication timeline over for attribution.
func (tl *Timeline) SetReplEvents(evs []stats.ReplEvent) {
	if tl == nil {
		return
	}
	tl.repl = evs
}

// seriesWindowValue reads a series at window idx with gauge forward-fill.
func (s *tlSeries) at(idx int) (int64, bool) {
	if s.gauge {
		for i := min(idx, len(s.vals)-1); i >= 0; i-- {
			if s.set[i] {
				return s.vals[i], true
			}
		}
		return 0, false
	}
	if idx < len(s.vals) && s.set[idx] {
		return s.vals[idx], true
	}
	return 0, false
}

// seriesSum sums a counter series over windows [lo, hi].
func (tl *Timeline) seriesSum(name string, lo, hi int) int64 {
	s := tl.series[name]
	if s == nil || s.gauge {
		return 0
	}
	var sum int64
	for i := lo; i <= hi && i < len(s.vals); i++ {
		if i >= 0 {
			sum += s.vals[i]
		}
	}
	return sum
}

// SeriesNames lists the recorded series in sorted order.
func (tl *Timeline) SeriesNames() []string {
	names := make([]string, 0, len(tl.series))
	for n := range tl.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- Stable JSON export -------------------------------------------------

// FaultWindow is one injected fault's span on the timeline.
type FaultWindow struct {
	Name    string `json:"name"`
	StartPs int64  `json:"start_ps"`
	EndPs   int64  `json:"end_ps"`
}

// WindowJSON is the rendered shape of one window.
type WindowJSON struct {
	Index        int                `json:"index"`
	StartPs      int64              `json:"start_ps"`
	Issued       int64              `json:"issued"`
	Completed    int64              `json:"completed"`
	Errors       int64              `json:"errors"`
	Shed         int64              `json:"shed"`
	Rerouted     int64              `json:"rerouted"`
	FailedOver   int64              `json:"failed_over"`
	SLOViol      int64              `json:"slo_violations"`
	QPS          float64            `json:"qps"`
	P50Ns        float64            `json:"p50_ns"`
	P99Ns        float64            `json:"p99_ns"`
	QueueMax     int64              `json:"queue_max"`
	BreakersOpen int64              `json:"breakers_open"`
	ShortBurn    float64            `json:"short_burn"`
	LongBurn     float64            `json:"long_burn"`
	PhaseMeanNs  map[string]float64 `json:"phase_mean_ns,omitempty"`
	Series       map[string]int64   `json:"series,omitempty"`
}

// TimelineJSON is the whole-run timeline artifact.
type TimelineJSON struct {
	StartPs    int64         `json:"start_ps"`
	IntervalPs int64         `json:"interval_ps"`
	SLONs      float64       `json:"slo_p99_ns"`
	Budget     float64       `json:"budget"`
	Windows    []WindowJSON  `json:"windows"`
	Faults     []FaultWindow `json:"faults,omitempty"`
	Alerts     []AlertEvent  `json:"alerts,omitempty"`
	Incidents  []Incident    `json:"incidents,omitempty"`
}

// JSON renders the finalized timeline. Map keys are emitted sorted and
// sim times as integer picoseconds, so the bytes are identical across
// replays of the same seed.
func (tl *Timeline) JSON() *TimelineJSON {
	tl.Finalize()
	out := &TimelineJSON{
		StartPs:    int64(tl.start),
		IntervalPs: int64(interval),
		SLONs:      SLONs,
		Budget:     budget,
		Faults:     tl.faults,
		Alerts:     tl.alerts,
		Incidents:  tl.incidents,
	}
	secs := float64(interval) / 1e12
	names := tl.SeriesNames()
	for _, w := range tl.windows {
		wj := WindowJSON{
			Index:        w.Index,
			StartPs:      int64(tl.start.Add(sim.Duration(w.Index) * interval)),
			Issued:       w.Issued,
			Completed:    w.Completed,
			Errors:       w.Errors,
			Shed:         w.Shed,
			Rerouted:     w.Rerouted,
			FailedOver:   w.FailedOver,
			SLOViol:      w.SLOViol,
			QPS:          float64(w.Completed) / secs,
			QueueMax:     w.QueueMax,
			BreakersOpen: w.BreakersOpen,
			ShortBurn:    w.ShortBurn,
			LongBurn:     w.LongBurn,
		}
		if w.Lat.N() > 0 {
			wj.P50Ns = w.Lat.Quantile(0.50)
			wj.P99Ns = w.Lat.Quantile(0.99)
		}
		if w.phaseN > 0 {
			wj.PhaseMeanNs = map[string]float64{}
			for ph := Phase(0); ph < NumPhases; ph++ {
				wj.PhaseMeanNs[ph.String()] = float64(w.phaseSum[ph]) / float64(w.phaseN)
			}
		}
		for _, n := range names {
			if v, ok := tl.series[n].at(w.Index); ok {
				if wj.Series == nil {
					wj.Series = map[string]int64{}
				}
				wj.Series[n] = v
			}
		}
		out.Windows = append(out.Windows, wj)
	}
	return out
}

// WriteJSON streams the stable-JSON timeline artifact.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(tl.JSON(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
