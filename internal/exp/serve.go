package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// ServeShards is the shard count every serving topology runs with: one
// kvstore per MCN DIMM, per cluster node, or per scale-up port, so the
// comparison holds the software architecture fixed and varies only the
// fabric (the paper's Discussion: one MCN server vs a rack of memcached
// nodes).
const ServeShards = 8

// DefaultServeRates is the offered-load ladder (requests/sec) of the
// latency-vs-throughput sweep. The ladder extends past the unbatched
// knee (~1.4M) so the batched configurations can show theirs.
var DefaultServeRates = []float64{100e3, 200e3, 400e3, 800e3, 1.2e6, 1.4e6, 1.6e6, 2e6, 2.4e6}

// McntServeRates extends the default ladder for "+mcnt" topologies: with
// the per-segment TCP/IP costs gone from the memory-channel hops, the
// knee sits past the TCP ladder's top rung, so the sweep needs higher
// rungs to find it. The shared prefix keeps the curves point-for-point
// comparable with the recorded TCP baselines.
var McntServeRates = append(append([]float64(nil), DefaultServeRates...), 2.8e6, 3.2e6)

// DefaultServeSLONs is the p99 service-level objective (ns) used for the
// qps-at-SLO headline. 40us sits well above every topology's unloaded
// p99 and well below the saturated tails, so the headline measures where
// each fabric's latency knee is. The timeline's burn-rate monitor judges
// completions against the same objective.
const DefaultServeSLONs = obs.SLONs

// ServeTopos lists the serving topologies in presentation order: both
// MCN optimization extremes bare and batched, then the batched mcn5
// fabric with each further plane on in turn (admission, replication, the
// mcnt transport, operator traffic), then the 10GbE rack and the scale-up
// box.
var ServeTopos = []Topo{
	{Fabric: "mcn0"}, {Fabric: "mcn5"},
	{Fabric: "mcn0", Batch: true}, {Fabric: "mcn5", Batch: true},
	{Fabric: "mcn5", Batch: true, Admit: true},
	{Fabric: "mcn5", Batch: true, Repl: true},
	{Fabric: "mcn5", Batch: true, Mcnt: true},
	{Fabric: "mcn5", Batch: true, Ops: true},
	{Fabric: "10gbe"}, {Fabric: "scaleup"},
}

// DefaultServeBatch is the coalescing bound the "+batch" topologies use:
// flush at 16 requests, 8KB, or 2us after the first dequeue — whichever
// comes first. The window only runs while earlier responses are in
// flight (flush-on-idle), so a sparse stream pays nothing; 2us sits well
// under the fabric's unloaded service time yet spans several
// inter-arrival gaps near the knee, where it roughly doubles the
// requests per segment and moves the saturation knee by ~50%.
var DefaultServeBatch = serve.BatchConfig{MaxRequests: 16, MaxBytes: 8 << 10, Window: 2 * sim.Microsecond}

// DefaultServeAdmit is the admission-control configuration the "+admit"
// topologies use: the internal/admit defaults (200us outstanding-age
// timeout, 1ms..8ms jittered backoff, 2-probe recovery) with the re-route
// policy, so a tripped shard's keys fall through to the next vnode owner
// instead of fast-failing.
var DefaultServeAdmit = admit.Config{On: true, Policy: admit.Reroute}

// DefaultServeRepl is the replication configuration the "+repl"
// topologies use: the internal/replica defaults (R=2 primary/backup
// pairs, a 32-record async forward window, 1ms sync-ack timeout). A
// replicated topology always runs with admission control on — the
// breaker state is what steers reads to the backup and gates the
// recovered primary's readmission behind catch-up.
var DefaultServeRepl = replica.Config{On: true}

// ServePoint is one offered-load point of one topology's curve.
type ServePoint struct {
	OfferedQPS float64
	Summary    serve.Summary
	Errors     int64
	Unfinished int64
	Degraded   []int
	// batchMean/batchMax are the point's requests-per-flush figures (zero
	// when nothing was coalesced), kept for ServeBatch's at-the-knee line.
	batchMean, batchMax float64
}

// Healthy reports whether the point completed every measured request.
func (p ServePoint) Healthy() bool { return p.Errors == 0 && p.Unfinished == 0 }

// ServeTopoCurve is one topology's latency-vs-throughput curve.
type ServeTopoCurve struct {
	Topo   string
	Points []ServePoint
}

// QpsAtSLO returns the highest achieved throughput among points that meet
// the p99 objective (ns) with no errors or unfinished requests; 0 if none
// do.
func (c ServeTopoCurve) QpsAtSLO(sloNs float64) float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Healthy() && p.Summary.P99 <= sloNs && p.Summary.QPS > best {
			best = p.Summary.QPS
		}
	}
	return best
}

// ServeCurveResult is the full sweep.
type ServeCurveResult struct {
	Seed   uint64
	SLONs  float64
	Curves []ServeTopoCurve
}

// Curve returns the named topology's curve, or nil.
func (r *ServeCurveResult) Curve(topo string) *ServeTopoCurve {
	for i := range r.Curves {
		if r.Curves[i].Topo == topo {
			return &r.Curves[i]
		}
	}
	return nil
}

// runServe executes one point: fresh kernel, topology, measured run.
// mutate, when set, edits the built config before the run.
func runServe(seed uint64, topo Topo, rate float64, mutate func(*serve.Config)) *serve.Result {
	k := sim.NewKernel()
	cfg, _ := topo.build(k, seed, rate)
	if mutate != nil {
		mutate(&cfg)
	}
	res := serve.Run(k, cfg)
	k.Shutdown()
	return res
}

// ServeOnce runs one point of the serving benchmark on topo.
// closedWorkers > 0 switches to the closed-loop driver and ignores rate.
func ServeOnce(seed uint64, topo Topo, rate float64, closedWorkers int) *serve.Result {
	return runServe(seed, topo, rate, func(c *serve.Config) {
		if closedWorkers > 0 {
			c.ClosedWorkers = closedWorkers
			c.RatePerSec = 0
		}
	})
}

// sweep runs topo over an offered-load ladder. nil rates picks the
// topology's default ladder: "+mcnt" sweeps the extended one (its knee
// sits past the TCP rungs) while everything else keeps the recorded
// baseline ladder point-for-point.
func sweep(seed uint64, topo Topo, rates []float64) ServeTopoCurve {
	if rates == nil {
		rates = DefaultServeRates
		if topo.Mcnt {
			rates = McntServeRates
		}
	}
	curve := ServeTopoCurve{Topo: topo.String()}
	for _, rate := range rates {
		r := runServe(seed, topo, rate, nil)
		pt := ServePoint{
			OfferedQPS: rate,
			Summary:    r.Summary(),
			Errors:     r.Errors,
			Unfinished: r.Unfinished,
			Degraded:   r.Degraded(),
		}
		if r.BatchSize.N() > 0 {
			pt.batchMean, pt.batchMax = r.BatchSize.Mean(), float64(r.BatchSize.Max())
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve
}

// render writes the curve the way the paper presents latency curves: p50,
// p99 and p999 against offered load.
func (c ServeTopoCurve) render(b *strings.Builder) {
	fmt.Fprintf(b, "%s\n", c.Topo)
	fmt.Fprintf(b, "%12s %10s %10s %10s %10s %7s\n", "offered/s", "qps", "p50us", "p99us", "p999us", "ok")
	for _, p := range c.Points {
		ok := "yes"
		if !p.Healthy() {
			ok = fmt.Sprintf("e%d/u%d", p.Errors, p.Unfinished)
		}
		fmt.Fprintf(b, "%12.0f %10.0f %10.1f %10.1f %10.1f %7s\n",
			p.OfferedQPS, p.Summary.QPS, p.Summary.P50/1e3, p.Summary.P99/1e3, p.Summary.P999/1e3, ok)
	}
}

// ServeCurve sweeps offered load over every serving topology: the
// MCN server at both optimization extremes, the 10GbE scale-out rack, and
// the single scale-up box. Same seed, same curves — every random stream is
// derived from it.
func ServeCurve(seed uint64, rates []float64) *ServeCurveResult {
	res := &ServeCurveResult{Seed: seed, SLONs: DefaultServeSLONs}
	for _, topo := range ServeTopos {
		res.Curves = append(res.Curves, sweep(seed, topo, rates))
	}
	return res
}

// String renders the sweep: one block per topology, plus the qps-at-SLO
// headline.
func (r *ServeCurveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kvstore serving: latency vs offered load (seed %d, %d shards, p99 SLO %.0fus)\n",
		r.Seed, ServeShards, r.SLONs/1e3)
	for _, c := range r.Curves {
		c.render(&b)
	}
	fmt.Fprintf(&b, "qps at p99<=%.0fus:", r.SLONs/1e3)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "  %s=%.0f", c.Topo, c.QpsAtSLO(r.SLONs))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// ServeFaultsResult is the DIMM-flap serving run: one shard's DIMM goes
// offline mid-measurement and the summary attributes the damage.
type ServeFaultsResult struct {
	Seed uint64
	// Batched..Ops report the planes the run had on (Admitted is also
	// true when replication implied it).
	Batched    bool
	Admitted   bool
	Repl       bool
	Mcnt       bool
	Ops        bool
	FlapDimm   string
	FlapStart  sim.Time
	FlapEnd    sim.Time
	Result     *serve.Result
	Degraded   []int
	FlapShards []string
	// Diverged counts primary/backup key disagreements remaining after the
	// post-run drain and final anti-entropy sweep; a replicated run must
	// end at 0 (every surviving write landed on both replicas).
	Diverged int
	// McntDrift is the mcnt fabric's credit/window accounting audit after
	// the post-run quiesce (empty = zero drift: every frame the flap ate
	// was resent, every grant reconverged); McntFabric is the fabric's
	// traffic summary. Both are empty when the run used TCP.
	McntDrift  []string
	McntFabric string
}

// ServeFaults runs topo (an MCN fabric: the flap names a DIMM) at 200k
// req/s with one DIMM flapping offline during the measured window. The
// run always terminates (the kernel is driven to a fixed deadline); the
// flapped shard shows up as degraded — errors, unfinished requests, or a
// collapsed tail — while the other shards keep serving. What each plane
// adds under the flap:
//   - Batch: the determinism and degradation story must hold with the
//     coalescing window in the path.
//   - Admit: the flapped shard's breaker opens, traffic re-routes to the
//     next vnode owners, and the breaker event trace replays
//     byte-identically from the seed.
//   - Repl: the flapped shard's keys keep serving from the backup replica,
//     every 8th SET is synchronous, and after the run the primaries and
//     backups are driven to convergence and diffed (Diverged must be 0).
//   - Mcnt: the flap eats mcnt frames instead of TCP segments, recovery
//     rides the go-back-N resend window instead of the RTO, and after the
//     run quiesces the fabric's credit accounting must show zero drift
//     (McntDrift empty).
//   - Ops: scans and filters in flight on the flapped shard fail or
//     strand, and the operator decisions replay with everything else.
func ServeFaults(seed uint64, topo Topo) *ServeFaultsResult {
	k := sim.NewKernel()
	cfg, rig := topo.build(k, seed, 200e3)
	fl := rig.flap(k, &cfg)
	r := serve.Run(k, cfg)

	out := &ServeFaultsResult{
		Seed: seed, Batched: cfg.Batch.Enabled(), Admitted: cfg.Admit.Enabled(), Repl: cfg.Repl.Enabled(),
		Mcnt: rig.fab != nil, Ops: cfg.Ops.On,
		FlapDimm: fl.Name, FlapStart: fl.Start, FlapEnd: fl.End,
		Result: r, Degraded: r.Degraded(),
	}
	if rig.fab != nil {
		// Let in-flight frames and the resend window settle (several
		// ResendTimeout rounds past the drain), then audit: every byte
		// the flap ate must have been recovered and every credit grant
		// reconverged — zero accounting drift.
		k.RunUntil(k.Now().Add(5 * sim.Millisecond))
		out.McntDrift = rig.fab.CheckAccounting()
		out.McntFabric = rig.fab.String()
	}
	if r.Repl != nil {
		// Convergence check: let the async forward windows drain, then run
		// one final anti-entropy sweep over every pair, then diff. Writes
		// cut off by the run deadline mid-forward are exactly what the
		// sweep repairs.
		k.RunUntil(k.Now().Add(2 * sim.Millisecond))
		k.Go("exp/final-sweep", func(p *sim.Proc) { r.Repl.FinalSweep(p) })
		k.RunUntil(k.Now().Add(5 * sim.Millisecond))
		for _, sh := range cfg.Shards {
			out.Diverged += replica.Diverged(sh.Server, sh.Backup)
		}
	}
	k.Shutdown()
	for _, s := range out.Degraded {
		out.FlapShards = append(out.FlapShards, r.PerShard[s].Name)
	}
	return out
}

// String renders the faulted run.
func (r *ServeFaultsResult) String() string {
	var b strings.Builder
	mode := ""
	if r.Batched {
		mode = ", batched"
	}
	if r.Admitted {
		mode += ", admitted"
	}
	if r.Repl {
		mode += ", replicated"
	}
	if r.Mcnt {
		mode += ", mcnt"
	}
	if r.Ops {
		mode += ", ops"
	}
	fmt.Fprintf(&b, "serving under a DIMM flap: %s offline [%v, %v) (seed %d%s)\n",
		r.FlapDimm, r.FlapStart, r.FlapEnd, r.Seed, mode)
	b.WriteString(r.Result.String())
	if r.Repl {
		fmt.Fprintf(&b, "post-run convergence: %d diverged keys\n", r.Diverged)
	}
	if r.Mcnt {
		fmt.Fprintf(&b, "%s | drift=%d\n", r.McntFabric, len(r.McntDrift))
		for _, d := range r.McntDrift {
			fmt.Fprintf(&b, "  drift: %s\n", d)
		}
	}
	return b.String()
}

// ServeReplResult is the replication A/B under a DIMM flap: identical
// topology, seed, flap window and offered load on mcn5+batch with
// admission control (re-route), run with replication off and on. Without
// replication the flapped shard's keys re-route to a vnode neighbour
// that has never seen them — GETs come back as misses and SETs land on
// the wrong shard. With replication the same keys keep serving real data
// from the backup replica, sync writes stay durable, and the recovered
// primary catches up before readmission.
type ServeReplResult struct {
	Seed uint64
	Off  *ServeFaultsResult
	On   *ServeFaultsResult
}

// ServeRepl runs the DIMM-flap serving experiment with replication off
// and on. Every stream derives from the seed, so each variant replays
// bit-identically.
func ServeRepl(seed uint64) *ServeReplResult {
	return &ServeReplResult{
		Seed: seed,
		Off:  ServeFaults(seed, Topo{Fabric: "mcn5", Batch: true, Admit: true}),
		On:   ServeFaults(seed, Topo{Fabric: "mcn5", Batch: true, Repl: true}),
	}
}

// String renders the A/B with the availability headline.
func (r *ServeReplResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replication under a DIMM flap: %s offline [%v, %v), mcn5+batch+admit (seed %d)\n",
		r.Off.FlapDimm, r.Off.FlapStart, r.Off.FlapEnd, r.Seed)
	for _, v := range []struct {
		name string
		res  *ServeFaultsResult
	}{{"repl=off", r.Off}, {"repl=on", r.On}} {
		fmt.Fprintf(&b, "--- %s ---\n%s", v.name, v.res.Result)
	}
	on, off := r.On.Result, r.Off.Result
	fmt.Fprintf(&b, "flap-window availability: misses off=%d on=%d | errors on=%d | failover reads=%d stale=%d\n",
		off.Misses, on.Misses, on.Errors, on.ReplCounters.FailoverReads, on.ReplCounters.StaleReads)
	fmt.Fprintf(&b, "p99: off=%.1fus on=%.1fus | sync acks=%d degraded=%d | diverged after sweep=%d\n",
		off.Summary().P99/1e3, on.Summary().P99/1e3,
		on.ReplCounters.SyncAcks, on.ReplCounters.SyncDegraded, r.On.Diverged)
	return b.String()
}

// ServeAdmitResult is the admission-control A/B/B' under a DIMM flap:
// identical topology, seed, flap window and offered load, run with
// admission off, with the re-route policy, and with the shed policy. The
// headline is the fault-window p99: unadmitted it rides the TCP
// retransmission timeout, admitted it stays bounded near the healthy
// tail because post-detection traffic never waits on the dead shard.
type ServeAdmitResult struct {
	Seed      uint64
	FlapDimm  string
	FlapStart sim.Time
	FlapEnd   sim.Time
	Off       *serve.Result
	Reroute   *serve.Result
	Shed      *serve.Result
}

// serveAdmitMeasure is the measured window of the flap A/B sweeps
// (ServeAdmit, ServeTimeline): long relative to the 2ms flap, so the p99
// verdict reflects what admission can control (traffic after the first
// timeout edge) rather than the handful of requests unavoidably trapped
// before it.
const serveAdmitMeasure = 15 * sim.Millisecond

// ServeAdmit runs the DIMM-flap serving experiment three ways — admission
// off, re-route, shed — on the mcn5+batch fabric. Every stream derives
// from the seed, so each variant replays bit-identically.
func ServeAdmit(seed uint64) *ServeAdmitResult {
	out := &ServeAdmitResult{Seed: seed}
	variants := []struct {
		res   **serve.Result
		admit admit.Config
	}{
		{&out.Off, admit.Config{}},
		{&out.Reroute, admit.Config{On: true, Policy: admit.Reroute}},
		{&out.Shed, admit.Config{On: true, Policy: admit.Shed}},
	}
	for _, v := range variants {
		k := sim.NewKernel()
		cfg, rig := Topo{Fabric: "mcn5", Batch: true}.build(k, seed, 200e3)
		cfg.Measure = serveAdmitMeasure
		cfg.Admit = v.admit
		fl := rig.flap(k, &cfg)
		out.FlapDimm, out.FlapStart, out.FlapEnd = fl.Name, fl.Start, fl.End
		*v.res = serve.Run(k, cfg)
		k.Shutdown()
	}
	return out
}

// P99Off, P99Reroute and P99Shed are the fault-window p99s (ns).
func (r *ServeAdmitResult) P99Off() float64     { return r.Off.Total.Quantile(0.99) }
func (r *ServeAdmitResult) P99Reroute() float64 { return r.Reroute.Total.Quantile(0.99) }
func (r *ServeAdmitResult) P99Shed() float64    { return r.Shed.Total.Quantile(0.99) }

// String renders the A/B/B' with the fault-window tail headline.
func (r *ServeAdmitResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "admission control under a DIMM flap: %s offline [%v, %v), mcn5+batch (seed %d)\n",
		r.FlapDimm, r.FlapStart, r.FlapEnd, r.Seed)
	for _, v := range []struct {
		name string
		res  *serve.Result
	}{{"admit=off", r.Off}, {"admit=reroute", r.Reroute}, {"admit=shed", r.Shed}} {
		fmt.Fprintf(&b, "--- %s ---\n%s", v.name, v.res)
	}
	fmt.Fprintf(&b, "fault-window p99: off=%.1fus reroute=%.1fus shed=%.1fus | rerouted=%d shed=%d\n",
		r.P99Off()/1e3, r.P99Reroute()/1e3, r.P99Shed()/1e3, r.Reroute.Rerouted, r.Shed.Shed)
	return b.String()
}

// ServeMcntResult is the transport A/B on the batched mcn5 fabric:
// identical topology, seed and workload, shard connections on TCP vs on
// the mcnt credit-based transport (internal/mcnt). The curves show where
// each knee sits; the per-phase attribution (tracing 1-in-1 at the
// standard attribution load) shows *why* — the phases TCP spent in
// segmentation, ACK clocking and delayed-ACK wakeups (HostStack on the
// request path, ReturnPath on the response path) collapse when the
// transport is native to the memory channel.
type ServeMcntResult struct {
	Seed  uint64
	SLONs float64
	TCP   ServeTopoCurve
	Mcnt  ServeTopoCurve
	// AttribTCP/AttribMcnt are the per-phase latency attributions at
	// ServeAttribRate (obs.NumPhases rows plus Total, in phase order).
	AttribTCP  []obs.Attrib
	AttribMcnt []obs.Attrib
	AttribRate float64
	Fabric     string // mcnt traffic summary from the attribution run
}

// ServeMcnt sweeps mcn5+batch with the shard connections on TCP and on
// mcnt — the transport knee-mover figure — then traces both at the
// attribution load for the phase-by-phase explanation. nil rates uses
// the default ladders (the mcnt curve sweeps the extended one so its
// knee is on the chart). Every stream derives from the seed, so both
// variants replay bit-identically.
func ServeMcnt(seed uint64, rates []float64) *ServeMcntResult {
	tcp := Topo{Fabric: "mcn5", Batch: true}
	mcnt := Topo{Fabric: "mcn5", Batch: true, Mcnt: true}
	tTCP := ServeTraced(seed, tcp, ServeAttribRate, 0, 1)
	tMcnt := ServeTraced(seed, mcnt, ServeAttribRate, 0, 1)
	return &ServeMcntResult{
		Seed: seed, SLONs: DefaultServeSLONs, AttribRate: ServeAttribRate,
		TCP: sweep(seed, tcp, rates), Mcnt: sweep(seed, mcnt, rates),
		AttribTCP: tTCP.Tracer.Attribution(), AttribMcnt: tMcnt.Tracer.Attribution(),
		Fabric: tMcnt.McntFabric,
	}
}

// String renders the A/B: both curves, the qps-at-SLO headline, and the
// per-phase before/after table with the HostStack+ReturnPath delta.
func (r *ServeMcntResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mcnt transport on memory-channel hops: mcn5+batch, TCP vs mcnt (seed %d, p99 SLO %.0fus)\n",
		r.Seed, r.SLONs/1e3)
	r.TCP.render(&b)
	r.Mcnt.render(&b)
	off, on := r.TCP.QpsAtSLO(r.SLONs), r.Mcnt.QpsAtSLO(r.SLONs)
	fmt.Fprintf(&b, "qps at p99<=%.0fus: tcp=%.0f mcnt=%.0f (%+.0f%%)\n",
		r.SLONs/1e3, off, on, 100*(on-off)/off)
	fmt.Fprintf(&b, "per-phase mean us @ %.0f req/s (tcp -> mcnt):\n", r.AttribRate)
	var dTCP, dMcnt float64
	for pi := 0; pi <= int(obs.NumPhases); pi++ {
		at, am := r.AttribTCP[pi], r.AttribMcnt[pi]
		fmt.Fprintf(&b, "  %-12s %8.2f -> %8.2f\n", at.Phase, at.MeanNs/1e3, am.MeanNs/1e3)
		if at.Phase == "HostStack" || at.Phase == "ReturnPath" {
			dTCP += at.MeanNs
			dMcnt += am.MeanNs
		}
	}
	fmt.Fprintf(&b, "HostStack+ReturnPath: %.2fus -> %.2fus (%+.0f%%)\n",
		dTCP/1e3, dMcnt/1e3, 100*(dMcnt-dTCP)/dTCP)
	fmt.Fprintf(&b, "%s\n", r.Fabric)
	return b.String()
}

// ServeBatchResult is the batching A/B on the mcn5 fabric: identical
// topology, seed and rate ladder, batching off vs on.
type ServeBatchResult struct {
	Seed      uint64
	SLONs     float64
	Unbatched ServeTopoCurve
	Batched   ServeTopoCurve
	// LowLoadRate is the lowest swept rate; the p99 pair there shows the
	// flush-on-idle guarantee (batching must not tax sparse traffic).
	LowLoadRate                     float64
	LowLoadP99Off, LowLoadP99On     float64
	BatchMeanAtKnee, BatchMaxAtKnee float64
}

// ServeBatch sweeps the mcn5 topology with request batching off and on:
// the batching knee-mover figure. Same seed, same arrival streams — the
// only difference between the two curves is the coalescing window.
func ServeBatch(seed uint64, rates []float64) *ServeBatchResult {
	res := &ServeBatchResult{
		Seed: seed, SLONs: DefaultServeSLONs,
		Unbatched: sweep(seed, Topo{Fabric: "mcn5"}, rates),
		Batched:   sweep(seed, Topo{Fabric: "mcn5", Batch: true}, rates),
	}
	res.LowLoadRate = res.Batched.Points[0].OfferedQPS
	res.LowLoadP99Off = res.Unbatched.Points[0].Summary.P99
	res.LowLoadP99On = res.Batched.Points[0].Summary.P99
	for _, p := range res.Batched.Points {
		if p.batchMean > 0 && p.Healthy() && p.Summary.P99 <= DefaultServeSLONs {
			res.BatchMeanAtKnee, res.BatchMaxAtKnee = p.batchMean, p.batchMax
		}
	}
	return res
}

// String renders the A/B with the knee headline.
func (r *ServeBatchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request batching on shard connections: mcn5, batching off vs on (seed %d, p99 SLO %.0fus)\n",
		r.Seed, r.SLONs/1e3)
	r.Unbatched.render(&b)
	r.Batched.render(&b)
	off, on := r.Unbatched.QpsAtSLO(r.SLONs), r.Batched.QpsAtSLO(r.SLONs)
	fmt.Fprintf(&b, "qps at p99<=%.0fus: off=%.0f on=%.0f (%+.0f%%)\n",
		r.SLONs/1e3, off, on, 100*(on-off)/off)
	fmt.Fprintf(&b, "low-load p99 @ %.0f req/s: off=%.1fus on=%.1fus | batch at knee: mean=%.1f max=%.0f reqs\n",
		r.LowLoadRate, r.LowLoadP99Off/1e3, r.LowLoadP99On/1e3, r.BatchMeanAtKnee, r.BatchMaxAtKnee)
	return b.String()
}
