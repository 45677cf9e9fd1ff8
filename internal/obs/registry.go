// Package obs is the simulator's observability plane: a unified metrics
// registry where every layer registers named counters, gauges and HDR
// histograms once, and a per-request span tracer that follows sampled
// requests from the load driver through the TCP stack, the MCN SRAM
// channel, the DIMM driver's IRQ/softirq path and the kvstore service —
// the latency attribution the paper argues with in Figs. 9-11.
//
// Everything here is deterministic and out-of-band: observation charges
// no simulated time and draws randomness only from seeded streams, so a
// traced run is event-identical to an untraced one and two traced runs
// at the same seed produce byte-identical artifacts (the repo-wide
// replay property).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Counter is a monotonically accumulated value owned by the registry.
type Counter struct{ v int64 }

// Add accumulates d.
func (c *Counter) Add(d int64) { c.v += d }

// Value returns the accumulated total.
func (c *Counter) Value() int64 { return c.v }

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHDR
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	default:
		return "hdr"
	}
}

type metric struct {
	kind metricKind
	c    *Counter
	gf   func() int64
	h    *stats.HDR
}

// Registry is the unified metrics surface: each layer registers its named
// counters/gauges/HDRs once (registration is idempotent per name) and a
// Snapshot freezes every value with a simulated timestamp. Snapshots
// iterate names in sorted order, so their renderings are deterministic.
//
// A Registry is confined to the simulation's single-threaded event loop
// like every other simulated structure; it needs no locking.
type Registry struct {
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) get(name string, kind metricKind) *metric {
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{kind: kind}
	r.byName[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	m := r.get(name, kindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// GaugeFunc registers a pull gauge: fn is evaluated at snapshot time.
// This is how existing layer counters (driver message counts, stack byte
// counters) join the registry without being rewritten.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.get(name, kindGaugeFunc).gf = fn
}

// RegisterHDR adopts an existing HDR histogram under the given name; the
// snapshot summarizes it (n, mean, p50, p99, max).
func (r *Registry) RegisterHDR(name string, h *stats.HDR) {
	r.get(name, kindHDR).h = h
}

// HDRStat is the frozen summary of one HDR histogram.
type HDRStat struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	Max  int64   `json:"max"`
}

// MetricValue is one frozen metric.
type MetricValue struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"`
	Value int64    `json:"value,omitempty"`
	HDR   *HDRStat `json:"hdr,omitempty"`
}

// Snapshot is a sim-time-stamped freeze of every registered metric, in
// sorted name order.
type Snapshot struct {
	AtPs    int64         `json:"at_ps"`
	Metrics []MetricValue `json:"metrics"`
}

// Snapshot freezes every metric at simulated time at. Names are sorted, so
// two snapshots of identical state render identically.
func (r *Registry) Snapshot(at sim.Time) *Snapshot {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	s := &Snapshot{AtPs: int64(at)}
	for _, n := range names {
		m := r.byName[n]
		mv := MetricValue{Name: n, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			mv.Value = m.c.Value()
		case kindGaugeFunc:
			if m.gf != nil {
				mv.Value = m.gf()
			}
		case kindHDR:
			h := m.h
			mv.HDR = &HDRStat{
				N: h.N(), Mean: h.Mean(), P50: h.Quantile(0.5), P99: h.Quantile(0.99), Max: h.Max(),
			}
		}
		s.Metrics = append(s.Metrics, mv)
	}
	return s
}

// Value returns the named frozen scalar (counter/gauge) and whether it
// exists.
func (s *Snapshot) Value(name string) (int64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.HDR == nil {
			return m.Value, true
		}
	}
	return 0, false
}

// WriteJSON renders the snapshot as the flat metrics artifact.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// String renders the snapshot as an aligned table.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics snapshot at %v (%d metrics)\n", sim.Time(s.AtPs), len(s.Metrics))
	for _, m := range s.Metrics {
		if m.HDR != nil {
			fmt.Fprintf(&b, "  %-40s n=%d mean=%.3g p50=%.3g p99=%.3g max=%d\n",
				m.Name, m.HDR.N, m.HDR.Mean, m.HDR.P50, m.HDR.P99, m.HDR.Max)
			continue
		}
		fmt.Fprintf(&b, "  %-40s %d\n", m.Name, m.Value)
	}
	return b.String()
}
