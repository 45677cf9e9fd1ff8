package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// ServeTraceResult is one traced serving run: the ordinary telemetry plus
// the span tracer (for Perfetto export and phase attribution) and the
// end-of-run metrics snapshot.
type ServeTraceResult struct {
	Topo     string
	Result   *serve.Result
	Tracer   *obs.Tracer
	Snapshot *obs.Snapshot
	// Timeline is the windowed time-series of the run (1ms windows,
	// finalized), feeding the -timeline artifact and the Perfetto
	// counter tracks.
	Timeline *obs.Timeline
	// McntFabric is the mcnt fabric's traffic summary when the topology
	// carried a "+mcnt" suffix; empty otherwise.
	McntFabric string
}

// ServeTraced runs one serving point with the observability plane on:
// sampleN is the 1-in-N span sampling rate (1 traces every request),
// closedWorkers > 0 switches to the closed-loop driver. The tracer taps
// the client/shard stacks, the kvstore servers and — on MCN fabrics —
// the SRAM channel drivers, so spans carry the full phase breakdown.
// Tracing draws only from seeded streams and charges no simulated time,
// so the run's event stream is identical to ServeOnce's.
func ServeTraced(seed uint64, topo Topo, rate float64, closedWorkers, sampleN int) *ServeTraceResult {
	return serveTraced(seed, topo, rate, closedWorkers, sampleN, false)
}

// ServeTracedFaults is ServeTraced under the standard DIMM-flap plan
// (rig.flap) — the traced counterpart of ServeFaults, used to prove the
// trace artifacts themselves replay byte-identically under fault
// injection.
func ServeTracedFaults(seed uint64, topo Topo, rate float64, sampleN int) *ServeTraceResult {
	return serveTraced(seed, topo, rate, 0, sampleN, true)
}

func serveTraced(seed uint64, topo Topo, rate float64, closedWorkers, sampleN int, flapped bool) *ServeTraceResult {
	k := sim.NewKernel()
	cfg, rig := topo.build(k, seed, rate)
	if closedWorkers > 0 {
		cfg.ClosedWorkers = closedWorkers
		cfg.RatePerSec = 0
	}
	tl := obs.NewTimeline(k.Now(), obs.TimelineConfig{SLONs: DefaultServeSLONs})
	if flapped {
		fl := rig.flap(k, &cfg)
		tl.AddFault(fl.Name, fl.Start, fl.End)
	}
	tr := obs.NewTracer(seed, sampleN, 0)
	reg := obs.NewRegistry()
	rig.observe(tr)
	cfg.Tracer, cfg.Metrics, cfg.Timeline = tr, reg, tl
	if rig.fab != nil {
		rig.fab.OnResend = tl.McntResent
		rig.fab.OnCreditStall = tl.McntCreditStall
	}
	res := serve.Run(k, cfg)
	snap := reg.Snapshot(k.Now())
	tl.Finalize()
	out := &ServeTraceResult{Topo: topo.String(), Result: res, Tracer: tr, Snapshot: snap, Timeline: tl}
	if rig.fab != nil {
		out.McntFabric = rig.fab.String()
	}
	k.Shutdown()
	return out
}

// ServeAttribTopos is the configuration ladder of the attribution table:
// the unoptimized MCN server, the fully optimized one, the optimized
// one with batching and with batching+admission, and finally the batched
// fabric with the mcnt transport replacing TCP on the memory-channel
// hops — the software-stack walk the serving PRs took, now explained
// phase by phase.
var ServeAttribTopos = []Topo{
	{Fabric: "mcn0"}, {Fabric: "mcn5"}, {Fabric: "mcn5", Batch: true},
	{Fabric: "mcn5", Batch: true, Admit: true}, {Fabric: "mcn5", Batch: true, Mcnt: true},
}

// ServeAttribRate is the offered load of the attribution runs: 200k req/s
// sits well under every configuration's knee, so the table attributes the
// intrinsic path cost rather than queueing collapse.
const ServeAttribRate = 200e3

// ServeAttribResult is the paper-style latency-breakdown table: for each
// configuration, where the mean/tail microseconds of a request go.
type ServeAttribResult struct {
	Seed  uint64
	Rate  float64
	Topos []Topo
	// Rows[i] is topo i's per-phase attribution (obs.NumPhases rows plus
	// the Total row, in phase order).
	Rows [][]obs.Attrib
}

// ServeAttrib runs the latency-attribution experiment: every
// configuration traced at sampling 1 (every request spanned) at the same
// offered load, reduced to a per-phase latency table — the reproduction
// of the paper's layer-by-layer latency argument (Figs. 9-11) for the
// serving stack.
func ServeAttrib(seed uint64) *ServeAttribResult {
	out := &ServeAttribResult{Seed: seed, Rate: ServeAttribRate, Topos: ServeAttribTopos}
	for _, topo := range ServeAttribTopos {
		r := ServeTraced(seed, topo, ServeAttribRate, 0, 1)
		out.Rows = append(out.Rows, r.Tracer.Attribution())
	}
	return out
}

// String renders the table: one column per configuration, one row per
// phase (mean ns, with the p99 alongside), phases summing to Total.
func (r *ServeAttribResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request latency attribution, mean us per phase (seed %d, %.0f req/s offered)\n", r.Seed, r.Rate)
	fmt.Fprintf(&b, "%-12s", "phase")
	for _, topo := range r.Topos {
		fmt.Fprintf(&b, " %16s", topo)
	}
	fmt.Fprintln(&b)
	for pi := 0; pi <= int(obs.NumPhases); pi++ {
		fmt.Fprintf(&b, "%-12s", r.Rows[0][pi].Phase)
		for ti := range r.Topos {
			fmt.Fprintf(&b, " %16.2f", r.Rows[ti][pi].MeanNs/1e3)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s", "p99 total")
	for ti := range r.Topos {
		fmt.Fprintf(&b, " %16.2f", r.Rows[ti][int(obs.NumPhases)].P99Ns/1e3)
	}
	fmt.Fprintln(&b)
	return b.String()
}
