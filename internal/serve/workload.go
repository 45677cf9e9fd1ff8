// Package serve is the load-generation and tail-latency subsystem for
// running MCN as a serving tier (the paper's Discussion: one MCN server
// replacing a rack of memcached nodes). It provides
//
//   - workload generators: a keyspace with Zipfian key popularity, a
//     configurable GET/SET mix, and two request drivers — an
//     open-loop Poisson arrival process (offered load is independent of
//     completions, the shape production traffic has) and a closed-loop
//     worker pool;
//   - a client-side consistent-hash shard router that spreads the keyspace
//     across every kvstore shard (one per MCN DIMM, or per cluster node)
//     with per-shard connection reuse and in-flight pipelining; and
//   - latency telemetry: log-bucketed HDR histograms (stats.HDR) with
//     per-phase attribution (queue wait vs service time) and a
//     warmup-trimmed summary (qps, p50, p95, p99, p999, max).
//
// Everything is seeded from the simulation (one sim.RNG stream per
// generator, no wall clock anywhere), so a run is bit-reproducible: same
// seed, same topology, same arrivals, same tail.
package serve

import (
	"fmt"
	"math"

	"github.com/mcn-arch/mcn/internal/sim"
)

// expDuration returns an exponential sample with the given mean, in the
// caller's unit (used for Poisson inter-arrival times).
func expDuration(r *sim.RNG, mean float64) float64 {
	u := r.Float64()
	return -mean * math.Log(1-u)
}

// zipfTheta is the skew of the Zipfian key popularity, the YCSB default:
// a few keys absorb most of the traffic, the shape measured on
// production memcached pools.
const zipfTheta = 0.99

// Workload describes the request stream of one run.
type Workload struct {
	// Keys is the number of distinct keys; ValueBytes the size of every
	// value.
	Keys       int
	ValueBytes int
	// GetFrac is the fraction of GETs; the rest are SETs (0 means the
	// memcached-classic 0.95).
	GetFrac float64
	// SyncEvery marks every SyncEvery-th SET per generator as synchronous
	// (the client waits for the backup replica's ack before the write is
	// acknowledged). 0 disables sync writes. Only meaningful when
	// replication is on; otherwise the flag is ignored on the wire.
	SyncEvery int
}

// withDefaults fills zero fields.
func (w Workload) withDefaults() Workload {
	if w.Keys == 0 {
		w.Keys = 10000
	}
	if w.ValueBytes == 0 {
		w.ValueBytes = 128
	}
	if w.GetFrac == 0 {
		w.GetFrac = 0.95
	}
	return w
}

// Key renders the i-th key. Keys are fixed-width so request sizes do not
// depend on the key index.
func (w Workload) Key(i int) string { return fmt.Sprintf("key-%08d", i) }

// zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta using the
// Gray et al. quantile-function method YCSB popularized: zeta(n) is
// precomputed once, each sample is O(1).
type zipf struct {
	n                 int
	theta             float64
	alpha, zetan, eta float64
	zeta2             float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.zeta2 = 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func (z *zipf) rank(r *sim.RNG) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.zeta2 {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// generator turns one sim.RNG stream into a deterministic request stream.
type generator struct {
	w    Workload
	z    *zipf // shared, read-only after construction
	r    sim.RNG
	sets int // SETs drawn so far, for the SyncEvery cadence
	rmws int // RMW ops drawn so far, for the CAS/fetch-add alternation
}

func (w Workload) newGenerator(z *zipf, seed uint64, name string) *generator {
	return &generator{w: w, z: z, r: sim.NewRNG(seed, name)}
}

// scramble spreads adjacent popularity ranks across the keyspace (YCSB's
// scrambled Zipfian) so the hottest keys do not all land on one shard.
func scramble(rank, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(rank>>(8*i))&0xff) * 1099511628211
	}
	return int(h % uint64(n))
}

// next draws one request: the operation, the key index, and whether the
// request is a synchronous write (every SyncEvery-th SET). The sync
// cadence is a counter, not an extra RNG draw, so enabling it never
// perturbs the arrival or key streams.
func (g *generator) next() (op byte, keyIdx int, sync bool) {
	keyIdx = g.keyIdx()
	if g.r.Float64() < g.w.GetFrac {
		return opGet, keyIdx, false
	}
	g.sets++
	if g.w.SyncEvery > 0 && g.sets%g.w.SyncEvery == 0 {
		sync = true
	}
	return opSet, keyIdx, sync
}

// keyIdx draws one key index from the popularity distribution. Factored
// out of next so operator traffic (ops.go) draws keys from the same
// stream with the same machinery.
func (g *generator) keyIdx() int {
	return scramble(g.z.rank(&g.r), g.w.Keys)
}
