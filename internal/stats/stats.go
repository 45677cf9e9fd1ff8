// Package stats provides lightweight measurement primitives for the
// simulator: counters with time bounds (for throughput), histograms (for
// latency distributions), and busy-time accumulators (for utilization and
// energy accounting).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/mcn-arch/mcn/internal/sim"
)

// Counter accumulates a quantity (bytes, packets, ...) and remembers the
// first and last accumulation times so a rate can be derived.
type Counter struct {
	Total int64
	N     int64
	first sim.Time
	last  sim.Time
	seen  bool
}

// Add accumulates v at time t.
func (c *Counter) Add(t sim.Time, v int64) {
	if !c.seen {
		c.first = t
		c.seen = true
	}
	c.last = t
	c.Total += v
	c.N++
}

// First returns the time of the first Add.
func (c *Counter) First() sim.Time { return c.first }

// Last returns the time of the most recent Add.
func (c *Counter) Last() sim.Time { return c.last }

// Rate returns Total divided by the observation span in seconds (units per
// second). It returns 0 if fewer than two events were recorded.
func (c *Counter) Rate() float64 {
	span := c.last.Sub(c.first).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(c.Total) / span
}

// RateOver returns Total divided by an externally supplied span.
func (c *Counter) RateOver(span sim.Duration) float64 {
	s := span.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(c.Total) / s
}

// Histogram collects samples and reports order statistics. It stores
// every raw sample (fine for the few hundred thousand observations a
// short simulation makes); hot paths that need bounded memory use HDR
// instead.
type Histogram struct {
	samples  []float64
	sorted   bool
	sum      float64
	min, max float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	first := len(h.samples) == 0
	h.sum += v
	if first || v < h.min {
		h.min = v
	}
	if first || v > h.max {
		h.max = v
	}
	h.samples = append(h.samples, v)
	h.sorted = false
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(d.Nanoseconds()) }

// N returns the number of observations.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the mean over all observations (0 with none).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Min returns the smallest observation (0 with no samples).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 with no samples).
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Median returns the 0.5 quantile.
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p99=%.3g max=%.3g",
		h.N(), h.Mean(), h.Median(), h.Quantile(0.99), h.Max())
}

// HDR is a log-bucketed high-dynamic-range histogram in the HdrHistogram
// style: non-negative integer values (latencies in nanoseconds, sizes in
// bytes) are binned into 2^hdrSubBits sub-buckets per power of two, which
// bounds the relative quantile error at 1/2^hdrSubBits (~1.6%) across the
// whole int64 range with a fixed ~30KB of counters. Unlike Histogram it
// never stores raw samples, so millions of observations cost nothing, and
// two HDRs merge exactly (bucket-wise sum) — the property serving
// benchmarks need to combine per-shard tails into a fleet-wide tail. The
// zero value is an empty histogram ready for use.
type HDR struct {
	counts   []int64
	n        int64
	sum      float64
	min, max int64
}

// hdrSubBits sets the sub-bucket resolution: 2^6 = 64 sub-buckets per
// octave.
const hdrSubBits = 6

// hdrBuckets is the counter array size: values up to 2^63-1 land in bucket
// (63-hdrSubBits-1+1)<<hdrSubBits + 63 at most.
const hdrBuckets = (64 - hdrSubBits) << hdrSubBits

// hdrIndex maps a value to its bucket.
func hdrIndex(v int64) int {
	if v < 1<<hdrSubBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - hdrSubBits - 1
	return e<<hdrSubBits + int(v>>uint(e))
}

// hdrMid returns the representative (midpoint) value of a bucket.
func hdrMid(idx int) int64 {
	if idx < 1<<hdrSubBits {
		return int64(idx)
	}
	e := uint(idx>>hdrSubBits - 1)
	low := int64(1<<hdrSubBits+idx&(1<<hdrSubBits-1)) << e
	return low + int64(1)<<e/2
}

// Record adds one observation (negative values are clamped to 0).
func (h *HDR) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]int64, hdrBuckets)
	}
	h.counts[hdrIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += float64(v)
}

// RecordDuration records a duration as integer nanoseconds.
func (h *HDR) RecordDuration(d sim.Duration) { h.Record(int64(d / sim.Nanosecond)) }

// N returns the number of observations.
func (h *HDR) N() int64 { return h.n }

// Min returns the smallest recorded value, exactly (0 when empty).
func (h *HDR) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, exactly (0 when empty).
func (h *HDR) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *HDR) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank over the
// buckets; the result is a bucket midpoint clamped to [Min, Max], so its
// relative error is bounded by the bucket resolution.
func (h *HDR) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for idx, c := range h.counts {
		seen += c
		if seen >= rank {
			v := hdrMid(idx)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return float64(v)
		}
	}
	return float64(h.max)
}

// Merge adds every observation of o into h. Merging is exact: bucket
// counts sum, so merge order never changes any quantile.
func (h *HDR) Merge(o *HDR) {
	if o == nil || o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]int64, hdrBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// String summarizes the histogram.
func (h *HDR) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p99=%.3g max=%d",
		h.n, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// RecoveryCounters records a layer's fault-detection and recovery events:
// what the hardened receive paths rejected and what the watchdogs repaired.
// Components embed one and bump the fields that apply to them.
type RecoveryCounters struct {
	FCSDrops      int64 // frames rejected by the RX FCS/CRC verify
	WatchdogKicks int64 // stalled rings re-kicked by a watchdog timer
	CarrierDrops  int64 // frames dropped toward a dead/offline device
	CarrierDowns  int64 // device-death detections (netdev carrier-down)
	CarrierUps    int64 // device recoveries (carrier restored)
}

// String renders the counters compactly.
func (r *RecoveryCounters) String() string {
	return fmt.Sprintf("fcsDrop=%d kicks=%d carrierDrop=%d down=%d up=%d",
		r.FCSDrops, r.WatchdogKicks, r.CarrierDrops, r.CarrierDowns, r.CarrierUps)
}

// AdmitCounters tallies one run's admission-control decisions: what the
// per-shard breakers shed or re-routed and how often they cycled. The
// breaker state machine lives in internal/admit; the counter block lives
// here so the serving telemetry and the determinism tests compare
// admission activity in one shape.
type AdmitCounters struct {
	Shed      int64 // requests fast-failed because every candidate shard was open
	Rerouted  int64 // requests moved off an open shard to the next vnode owner
	Opens     int64 // closed/half-open -> open transitions
	HalfOpens int64 // open -> half-open transitions (probe windows started)
	Closes    int64 // half-open -> closed transitions (shard readmitted)
	Probes    int64 // requests admitted as half-open probes
}

// Total sums every breaker transition (shed/rerouted are per-request and
// excluded).
func (a *AdmitCounters) Total() int64 { return a.Opens + a.HalfOpens + a.Closes }

// String renders the counters compactly.
func (a *AdmitCounters) String() string {
	return fmt.Sprintf("shed=%d rerouted=%d opens=%d halfopens=%d closes=%d probes=%d",
		a.Shed, a.Rerouted, a.Opens, a.HalfOpens, a.Closes, a.Probes)
}

// HealthEvent is one per-shard breaker transition: the health timeline of
// a serving run is the ordered list of these. States are rendered as
// strings ("closed", "open", "half-open") so the timeline can be compared
// byte-for-byte across replayed runs without importing the state machine.
type HealthEvent struct {
	Shard  int
	Name   string
	T      sim.Time
	From   string
	To     string
	Reason string
}

// String renders one transition.
func (e HealthEvent) String() string {
	return fmt.Sprintf("[%v] shard %d %s %s->%s (%s)", e.T, e.Shard, e.Name, e.From, e.To, e.Reason)
}

// ReplCounters tallies one run's replication activity: the primary→backup
// forward stream, sync-write outcomes, and the anti-entropy catch-up
// traffic. The replication machinery lives in internal/replica; the
// counter block lives here so serving telemetry and determinism tests
// compare replication activity in one shape, the way AdmitCounters does
// for the breakers.
type ReplCounters struct {
	Forwards int64 // records queued for primary->backup forwarding
	Acks     int64 // forwards acknowledged by the backup store
	Dropped  int64 // forwards dropped from a full window (healed by anti-entropy)
	DownSkip int64 // forwards skipped because the backup host was not admitted
	// MaxPending is the high-water mark of any pair's forward queue —
	// the measured bound on async staleness (in records).
	MaxPending    int64
	SyncAcks      int64 // sync writes acknowledged by the backup before the deadline
	SyncDegraded  int64 // sync writes locally acked because the backup was not admitted
	SyncFailed    int64 // sync writes that timed out with the backup admitted
	Reconnects    int64 // forward-connection redials
	CatchupPulls  int64 // anti-entropy delta requests issued
	CatchupRecs   int64 // delta records applied during catch-up
	StaleReads    int64 // failover reads of keys with a forward still pending
	FailoverReads int64 // reads served by a backup store
}

// String renders the counters compactly.
func (r *ReplCounters) String() string {
	return fmt.Sprintf("fwd=%d ack=%d drop=%d downskip=%d maxpend=%d sync(ack=%d degraded=%d failed=%d) reconn=%d pulls=%d recs=%d failover=%d stale=%d",
		r.Forwards, r.Acks, r.Dropped, r.DownSkip, r.MaxPending,
		r.SyncAcks, r.SyncDegraded, r.SyncFailed, r.Reconnects,
		r.CatchupPulls, r.CatchupRecs, r.FailoverReads, r.StaleReads)
}

// ReplEvent is one replication-plane transition — a catch-up starting,
// a shard readmitted after convergence, a forward stream flushed. The
// ordered list is the replication timeline a replay must reproduce
// byte-for-byte, mirroring HealthEvent for the breakers.
type ReplEvent struct {
	Pair   int // keyspace (primary shard) index
	Name   string
	T      sim.Time
	What   string
	Detail string
}

// String renders one transition.
func (e ReplEvent) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("[%v] pair %d %s %s", e.T, e.Pair, e.Name, e.What)
	}
	return fmt.Sprintf("[%v] pair %d %s %s (%s)", e.T, e.Pair, e.Name, e.What, e.Detail)
}

// BusyMeter accumulates intervals during which a component was active.
// Overlapping Busy calls are additive (two cores busy for 1s = 2s busy
// time), which is what energy integration wants.
type BusyMeter struct {
	Busy sim.Duration
}

// AddBusy records d of active time.
func (b *BusyMeter) AddBusy(d sim.Duration) { b.Busy += d }

// Energy returns busy*activePower + (span*units - busy)*idlePower, in
// joules, where powers are in watts and span covers the full run.
func (b *BusyMeter) Energy(span sim.Duration, units int, activeW, idleW float64) float64 {
	busy := b.Busy.Seconds()
	total := span.Seconds() * float64(units)
	idle := total - busy
	if idle < 0 {
		idle = 0
	}
	return busy*activeW + idle*idleW
}

// OpTally is the per-operator-family slice of a serving run's
// near-memory operator activity: how many logical operators ran, which
// execution path the decision layer picked for each, and the wire
// traffic they cost. The operator machinery lives in internal/nmop; the
// counter block lives here so serving telemetry and determinism tests
// compare operator activity in one shape, the way ReplCounters does for
// replication.
type OpTally struct {
	Issued    int64 `json:"issued"`           // logical operators issued
	Offloaded int64 `json:"offloaded"`        // executed on-DIMM
	Host      int64 `json:"host"`             // executed through the host-side fallback
	Errors    int64 `json:"errors,omitempty"` // operators that failed (bad request, transport)
	WireReqs  int64 `json:"wire_reqs"`        // wire requests the operators expanded into
	ReqBytes  int64 `json:"req_bytes"`        // request payload bytes over the channel
	RespBytes int64 `json:"resp_bytes"`       // response payload bytes over the channel
}

// Add folds another tally into this one.
func (o *OpTally) Add(b OpTally) {
	o.Issued += b.Issued
	o.Offloaded += b.Offloaded
	o.Host += b.Host
	o.Errors += b.Errors
	o.WireReqs += b.WireReqs
	o.ReqBytes += b.ReqBytes
	o.RespBytes += b.RespBytes
}

// Bytes is the operator family's total channel payload volume.
func (o *OpTally) Bytes() int64 { return o.ReqBytes + o.RespBytes }

// String renders the tally compactly.
func (o *OpTally) String() string {
	return fmt.Sprintf("n=%d dimm=%d host=%d err=%d wire=%d reqB=%d respB=%d",
		o.Issued, o.Offloaded, o.Host, o.Errors, o.WireReqs, o.ReqBytes, o.RespBytes)
}

// OpsCounters tallies one serving run's near-memory operator traffic by
// family: multi-GET, range scan, filter+aggregate, and read-modify-write
// (CAS + fetch-and-add folded together — one offload decision covers
// both). The json tags are the "ops" section of mcn-serve's single-run
// -json output.
type OpsCounters struct {
	MultiGet OpTally `json:"multiget"`
	Scan     OpTally `json:"scan"`
	Filter   OpTally `json:"filter"`
	RMW      OpTally `json:"rmw"`
}

// Total sums logical operators across families.
func (o *OpsCounters) Total() int64 {
	return o.MultiGet.Issued + o.Scan.Issued + o.Filter.Issued + o.RMW.Issued
}

// Bytes sums channel payload volume across families.
func (o *OpsCounters) Bytes() int64 {
	return o.MultiGet.Bytes() + o.Scan.Bytes() + o.Filter.Bytes() + o.RMW.Bytes()
}

// String renders one line per family, determinism-comparison friendly.
func (o *OpsCounters) String() string {
	return fmt.Sprintf("multiget(%s) scan(%s) filter(%s) rmw(%s)",
		o.MultiGet.String(), o.Scan.String(), o.Filter.String(), o.RMW.String())
}
