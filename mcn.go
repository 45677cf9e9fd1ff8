// Package mcn is the public API of the Memory Channel Network (MCN)
// simulator, a full reimplementation of "Application-Transparent
// Near-Memory Processing Architecture with Memory Channel Network"
// (MICRO 2018).
//
// The package re-exports the stable surface of the internal packages:
//
//   - the deterministic simulation kernel (NewKernel, Proc, Time),
//   - topology builders (NewMcnServer, NewEthCluster, NewScaleUp,
//     NewContutto),
//   - the MCN optimization levels mcn0..mcn5 (Table I of the paper),
//   - a mini-MPI (LaunchMPI) plus the NPB/CORAL/BigDataBench workload
//     suite, and
//   - one generator per table and figure of the paper's evaluation
//     (Fig8a, Fig8b, Fig8c, Table3, Fig9, Fig10, Fig11, Headline).
//
// A minimal session:
//
//	k := mcn.NewKernel()
//	s := mcn.NewMcnServer(k, 8, mcn.MCN5.Options())
//	res := mcn.Iperf(k, s.Endpoints()[0], s.McnEndpoints()[:4], 5201,
//	    mcn.Millisecond, 4*mcn.Millisecond)
//	k.RunFor(10 * mcn.Millisecond)
//	fmt.Printf("aggregate goodput: %.2f Gbps\n", res.GoodputBps*8/1e9)
package mcn

import (
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/energy"
	"github.com/mcn-arch/mcn/internal/exp"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/mapreduce"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/npb"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
	"github.com/mcn-arch/mcn/internal/workloads"
)

// Simulation kernel.
type (
	// Kernel is the discrete-event simulation engine.
	Kernel = sim.Kernel
	// Proc is a simulated process.
	Proc = sim.Proc
	// Time is an absolute simulated timestamp (picoseconds).
	Time = sim.Time
	// Duration is a span of simulated time (picoseconds).
	Duration = sim.Duration
)

// Duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel { return sim.NewKernel() }

// MCN architecture (the paper's contribution).
type (
	// OptLevel is one of the cumulative optimization levels of Table I.
	OptLevel = core.OptLevel
	// Options are the individually toggleable MCN mechanisms.
	Options = core.Options
	// McnServer is a host with N MCN DIMMs.
	McnServer = cluster.McnServer
	// EthCluster is a conventional 10GbE scale-out cluster.
	EthCluster = cluster.EthCluster
	// Endpoint is a place a workload process can run.
	Endpoint = cluster.Endpoint
	// Host is a server node (with optional MCN driver and NIC).
	Host = node.Host
	// NodeConfig describes one machine's resources (Table II defaults).
	NodeConfig = node.Config
	// McnRack is several MCN servers behind one top-of-rack switch; MCN
	// nodes on different hosts communicate through the hosts' NICs.
	McnRack = cluster.McnRack
	// Prototype is the POWER8 + ConTutto proof-of-concept system.
	Prototype = node.Prototype
	// IP is an IPv4 address.
	IP = netstack.IP
)

// Optimization levels (Table I).
const (
	MCN0 = core.MCN0 // HR-timer polling baseline
	MCN1 = core.MCN1 // + ALERT_N DIMM interrupt
	MCN2 = core.MCN2 // + checksum bypass
	MCN3 = core.MCN3 // + 9KB MTU
	MCN4 = core.MCN4 // + TSO
	MCN5 = core.MCN5 // + MCN-DMA
)

// OptLevels lists all levels in order.
func OptLevels() []OptLevel { return core.Levels() }

// NewMcnServer builds an MCN-enabled server with nDimms MCN DIMMs.
func NewMcnServer(k *Kernel, nDimms int, opts Options) *McnServer {
	return cluster.NewMcnServer(k, nDimms, opts)
}

// NewEthCluster builds a 10GbE scale-out cluster of n Table II nodes.
func NewEthCluster(k *Kernel, n int) *EthCluster {
	return cluster.NewEthCluster(k, n, node.HostConfig(""))
}

// NewScaleUp builds a single server with the given core count.
func NewScaleUp(k *Kernel, cores int) *Host { return cluster.NewScaleUp(k, cores) }

// NewMcnRack builds nServers MCN servers (dimmsPer DIMMs each) behind one
// top-of-rack switch (the Sec. III-B / Sec. VII multi-host scenario).
func NewMcnRack(k *Kernel, nServers, dimmsPer int, opts Options) *McnRack {
	return cluster.NewMcnRack(k, nServers, dimmsPer, opts)
}

// NewContutto builds the FPGA proof-of-concept prototype (Sec. V).
func NewContutto(k *Kernel) *Prototype { return node.NewContutto(k) }

// HostConfig returns the Table II host configuration.
func HostConfig(name string) NodeConfig { return node.HostConfig(name) }

// McnConfig returns the Table II MCN processor configuration.
func McnConfig(name string) NodeConfig { return node.McnConfig(name) }

// Distributed computing.
type (
	// World is one MPI job.
	World = mpi.World
	// Rank is one MPI process.
	Rank = mpi.Rank
	// Program is the per-rank body of an MPI job.
	Program = mpi.Program
	// KernelFunc is a workload body (NPB / CORAL / BigDataBench).
	KernelFunc = npb.KernelFunc
)

// LaunchMPI starts an MPI job with one rank per endpoint.
func LaunchMPI(k *Kernel, eps []Endpoint, basePort uint16, prog Program) *World {
	return mpi.Launch(k, eps, basePort, prog)
}

// WorkloadSuite returns the full Fig. 9/10 workload suite (NPB + amg,
// lulesh, sort, wordcount, grep).
func WorkloadSuite() map[string]KernelFunc { return workloads.Suite }

// WorkloadNames lists the suite in the paper's plotting order.
func WorkloadNames() []string { return workloads.SuiteNames }

// Traffic tools.
type IperfResult = workloads.IperfResult

// Iperf runs an iperf server plus one client per endpoint; see
// workloads.Iperf.
func Iperf(k *Kernel, server Endpoint, clients []Endpoint, port uint16, warmup, dur Duration) *IperfResult {
	return workloads.Iperf(k, server, clients, port, warmup, dur)
}

// PingSweep measures round-trip times for each payload size.
func PingSweep(k *Kernel, from Endpoint, to IP, sizes []int, perSize int) map[int]Duration {
	return workloads.PingSweep(k, from, to, sizes, perSize)
}

// MapReduceJob describes one MapReduce computation: a small Hadoop-style
// framework over the simulated network.
type MapReduceJob = mapreduce.Job

// RunMapReduce executes a job on an MPI world (rank 0 drives, the rest
// map and reduce); it returns the merged result on rank 0.
func RunMapReduce(r *Rank, job MapReduceJob) map[string]string {
	return mapreduce.Run(r, job)
}

// Key/value store: a memcached-class service for near-memory caching.
type (
	// KVServer is a key/value store bound to one node.
	KVServer = kvstore.Server
	// KVClient is one connection to a KVServer.
	KVClient = kvstore.Client
)

// NewKVServer starts a key/value server on ep.
func NewKVServer(k *Kernel, ep Endpoint, port uint16) *KVServer {
	return kvstore.NewServer(k, ep, port)
}

// DialKV connects a client from ep to the server at addr:port.
func DialKV(p *Proc, ep Endpoint, addr IP, port uint16) (*KVClient, error) {
	return kvstore.Dial(p, ep, addr, port)
}

// Fault injection: deterministic, seed-driven chaos for every layer.
type (
	// FaultPlan describes one run's injected faults (what, where, how
	// likely); the zero value injects nothing.
	FaultPlan = faults.Plan
	// FaultInjector owns the per-site decision streams and counters.
	FaultInjector = faults.Injector
	// DimmFlap is a whole-DIMM offline window.
	DimmFlap = faults.DimmFlap
)

// NewFaultInjector creates an injector for the plan; attach it with the
// topologies' InjectFaults methods (EthCluster, McnServer, McnRack) before
// running the simulation. Same seed, same topology, same workload — same
// faults, bit for bit.
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	return faults.New(plan)
}

// Tracer is a tcpdump-style packet capture; attach one to any node with
// ep.Node.Stack.Tap = tracer, run the simulation, then print
// tracer.Dump().
type Tracer = obs.Recorder

// NewTracer returns a capture buffer holding up to max frames (0 = 4096).
func NewTracer(max int) *Tracer { return obs.NewRecorder(max) }

// Energy accounting.
type PowerTable = energy.Power

// DefaultPower returns the calibrated component power table.
func DefaultPower() PowerTable { return energy.Default() }

// Experiments (one per table/figure of the paper).
type (
	Fig8aResult      = exp.Fig8aResult
	Fig8Latency      = exp.Fig8Latency
	Table3Result     = exp.Table3Result
	Fig9Result       = exp.Fig9Result
	Fig10Result      = exp.Fig10Result
	Fig11Result      = exp.Fig11Result
	HeadlineResult   = exp.HeadlineResult
	DiscussionResult = exp.DiscussionResult
	FaultSweepResult = exp.FaultSweepResult
	// Scale trades working-set size for run time in Figs. 9-11.
	Scale = exp.Scale
)

// QuickScale is a small working-set multiplier suitable for smoke runs.
const QuickScale = exp.QuickScale

// Fig8a regenerates Fig. 8(a): iperf bandwidth, mcn0..mcn5, normalized to
// 10GbE.
func Fig8a() *Fig8aResult { return exp.Fig8a() }

// Fig8b regenerates Fig. 8(b): host-to-MCN ping RTT across payload sizes.
func Fig8b() *Fig8Latency { return exp.Fig8b() }

// Fig8c regenerates Fig. 8(c): MCN-to-MCN ping RTT across payload sizes.
func Fig8c() *Fig8Latency { return exp.Fig8c() }

// Table3 regenerates Table III: single-packet latency breakdowns.
func Table3() *Table3Result { return exp.Table3() }

// Fig9 regenerates Fig. 9: aggregate memory bandwidth utilization.
func Fig9(names []string, scale Scale) *Fig9Result { return exp.Fig9(names, scale) }

// Fig10 regenerates Fig. 10: energy vs equal-core scale-out clusters.
func Fig10(names []string, scale Scale) *Fig10Result { return exp.Fig10(names, scale) }

// Fig11 regenerates Fig. 11: NPB execution time, scale-up vs MCN.
func Fig11(kernels []string, scale Scale) *Fig11Result { return exp.Fig11(kernels, scale) }

// Headline computes the abstract's summary numbers.
func Headline(names []string, scale Scale) *HeadlineResult { return exp.Headline(names, scale) }

// Discussion quantifies Sec. VII: TCP's ACK overhead on MCN and the gains
// of the channel-native mcnt transport over it.
func Discussion() *DiscussionResult { return exp.Discussion() }

// FaultSweep measures iperf goodput vs injected loss rate (10GbE vs mcn0
// vs mcn5); nil rates uses the default ladder. The sweep replays exactly
// from the seed.
func FaultSweep(seed uint64, rates []float64) *FaultSweepResult {
	return exp.FaultSweep(seed, rates)
}

// Serving benchmark: load generation, shard routing and tail-latency
// telemetry for running MCN as a key/value cache tier.
type (
	// ServeResult is one run's telemetry (HDR histograms, per-shard
	// slices, warmup-trimmed summary).
	ServeResult = serve.Result
	// ServeCurveResult is the latency-vs-throughput sweep across
	// topologies.
	ServeCurveResult = exp.ServeCurveResult
	// ServeFaultsResult is the serving run with a DIMM flap mid-window.
	ServeFaultsResult = exp.ServeFaultsResult
	// ServeBatchResult is the batching off/on A/B on the mcn5 fabric.
	ServeBatchResult = exp.ServeBatchResult
	// ServeAdmitResult is the admission-control off/reroute/shed A/B/B'
	// under a DIMM flap.
	ServeAdmitResult = exp.ServeAdmitResult
	// ServeReplResult is the replication off/on A/B under a DIMM flap.
	ServeReplResult = exp.ServeReplResult
)

// DefaultServeRepl is the replication configuration the "+repl" serving
// topologies use: R=2 primary/backup pairs across the DIMM shards with
// breaker-driven failover and versioned anti-entropy catch-up
// (internal/replica defaults; implies admission control).
var DefaultServeRepl = exp.DefaultServeRepl

// ServeReplWindow is the replication plane's per-pair forward window in
// records: the async staleness bound.
const ServeReplWindow = replica.Window

// Topo is one serving topology as a typed value: a fabric ("mcn0",
// "mcn5", "10gbe", "scaleup") plus the planes switched on over it — Batch
// (request batching), Admit (admission control), Repl (primary/backup
// replication, implies Admit), Mcnt (the MCN-native transport on
// memory-channel hops) and Ops (near-memory operator traffic). Every
// serving experiment takes one.
type Topo = exp.Topo

// ParseTopo reads a topology's text form, FABRIC[+SUFFIX...] with the
// suffixes in any order ("mcn5+batch+repl"); TopoGrammar states what it
// accepts in one line, for usage and error messages.
func ParseTopo(s string) (Topo, error) { return exp.ParseTopo(s) }

// TopoGrammar is the one-line statement of what ParseTopo accepts.
func TopoGrammar() string { return exp.TopoGrammar() }

// DefaultServeSLONs is the default p99 objective (ns) for qps-at-SLO.
const DefaultServeSLONs = exp.DefaultServeSLONs

// ServeOnce runs one point of the serving benchmark on topo;
// closedWorkers > 0 switches to the closed-loop driver and ignores rate.
func ServeOnce(seed uint64, topo Topo, rate float64, closedWorkers int) *ServeResult {
	return exp.ServeOnce(seed, topo, rate, closedWorkers)
}

// ServeCurve sweeps offered load across the serving topologies (mcn0,
// mcn5, their batched variants, 10GbE scale-out, scale-up); nil rates
// uses the default ladder.
func ServeCurve(seed uint64, rates []float64) *ServeCurveResult { return exp.ServeCurve(seed, rates) }

// ServeBatch sweeps the mcn5 topology with request batching off and on
// over the same rate ladder (nil = default): the knee-mover A/B.
func ServeBatch(seed uint64, rates []float64) *ServeBatchResult { return exp.ServeBatch(seed, rates) }

// ServeFaults runs topo (an MCN fabric) with one DIMM flapping offline
// during the measured window and reports the degraded shard. The planes
// topo switches on decide what the flap exercises: breaker-driven
// re-routing (Admit), backup failover and post-run replica convergence
// (Repl), go-back-N recovery audited to zero credit drift (Mcnt),
// operator traffic (Ops). The run replays byte-identically from the seed.
func ServeFaults(seed uint64, topo Topo) *ServeFaultsResult { return exp.ServeFaults(seed, topo) }

// ServeAdmit runs the DIMM-flap serving experiment with admission off,
// the re-route policy, and the shed policy on the mcn5+batch fabric; the
// headline compares the fault-window p99s.
func ServeAdmit(seed uint64) *ServeAdmitResult { return exp.ServeAdmit(seed) }

// ServeRepl runs the DIMM-flap serving experiment with replication off
// and on; the headline compares flap-window misses, failover reads and
// post-run replica convergence.
func ServeRepl(seed uint64) *ServeReplResult { return exp.ServeRepl(seed) }

// Near-memory operators: on-DIMM multi-GET, range scan, filter+aggregate
// and read-modify-write over the kvstore shards, with an NMPO-style cost
// model deciding per operator whether to offload or take the host-side
// fallback (internal/nmop, serve.OpsConfig). A "+ops" suffix on a
// serving topology mixes the default operator traffic into the workload.
type (
	// OpsCounters tallies a run's operator traffic by family.
	OpsCounters = stats.OpsCounters
	// ServeOpsResult is the selectivity sweep of host vs on-DIMM vs auto
	// execution with the calibration that preceded it.
	ServeOpsResult = exp.ServeOpsResult
)

// ServeOps runs the near-memory operator experiment: calibrate, then
// sweep filter selectivity with execution forced host-side, forced
// on-DIMM, and decided by the calibrated model — the bytes-over-channel
// figure of the offload argument.
func ServeOps(seed uint64) *ServeOpsResult { return exp.ServeOps(seed) }

// WallBenchResult is the BENCH_wallclock.json artifact shape: the
// simulator's event budget for each serving point.
type WallBenchResult = exp.WallBenchResult

// WallBench counts the simulator's kernel work (events, requests,
// pushes, switches, spawns, ...) over the canonical serving topologies and
// rate ladders. Every counter is deterministic for the seed.
func WallBench(seed uint64) *WallBenchResult { return exp.WallBench(seed) }

// ServeBench is the BENCH_serve.json artifact shape.
type ServeBench = exp.ServeBench

// RunServeBench runs the whole serving benchmark at seed (curve sweep,
// admission and replication flap A/Bs, operator smoke sweep) and reduces
// it to the artifact; nil rates uses the default ladders.
func RunServeBench(seed uint64, sloNs float64, rates []float64) *ServeBench {
	return exp.RunServeBench(seed, sloNs, rates)
}

// CheckArtifact is the one drift gate: raw is a committed
// BENCH_serve.json or BENCH_wallclock.json; every section it records is
// regenerated at seed and compared leaf by leaf (integers exactly, floats
// to a formatting allowance), and each drifted JSON path is named. rates optionally trims the serving
// curve sweep to a partial ladder. Any drift line is a failure.
func CheckArtifact(raw []byte, seed uint64, rates []float64) (notes, drift []string) {
	return exp.CheckArtifact(raw, seed, rates)
}

// mcnt: the MCN-native reliable transport — credit-based sliding-window
// flow control with go-back-N resend over the SRAM rings, replacing TCP
// on memory-channel hops (internal/mcnt). A "+mcnt" suffix on a serving
// topology installs it on every shard connection.
type (
	// McntFabric owns the per-link endpoints, stream table and credit
	// accounting of one MCN server's mcnt deployment.
	McntFabric = mcnt.Fabric
	// McntParams tunes the transport (window, frame costs, timeouts).
	McntParams = mcnt.Params
	// ServeMcntResult is the TCP-vs-mcnt transport A/B on the batched
	// mcn5 fabric: both curves plus the per-phase attribution.
	ServeMcntResult = exp.ServeMcntResult
)

// DefaultMcntParams is the transport tuning the "+mcnt" topologies use.
func DefaultMcntParams() McntParams { return mcnt.DefaultParams() }

// AttachMcnt installs the mcnt transport on an MCN server: one reliable
// link per host<->DIMM channel, multiplexing any number of streams. Use
// Fabric.TransportFor to place endpoints on it.
func AttachMcnt(k *Kernel, h *Host, pr McntParams) *McntFabric { return mcnt.Attach(k, h, pr) }

// ServeMcnt runs the transport A/B: mcn5+batch with the shard
// connections on TCP vs on mcnt over the same rate ladder (nil = the
// default ladders), the qps-at-SLO headline, and the per-phase
// attribution showing where the TCP stack time went.
func ServeMcnt(seed uint64, rates []float64) *ServeMcntResult { return exp.ServeMcnt(seed, rates) }

// Observability: end-to-end request spans, the unified metrics registry
// and the Perfetto/Chrome trace export (internal/obs).
type (
	// SpanTracer samples requests into spans whose phase breakdowns
	// telescope exactly to end-to-end latency. (Tracer is the
	// packet-capture recorder.)
	SpanTracer = obs.Tracer
	// Registry is the unified metrics registry (counters, gauges, HDRs).
	Registry = obs.Registry
	// ServeTraceResult is one traced serving run: telemetry + tracer +
	// metrics snapshot.
	ServeTraceResult = exp.ServeTraceResult
	// ServeAttribResult is the per-phase latency-attribution table
	// across the serving configuration ladder.
	ServeAttribResult = exp.ServeAttribResult
)

// Continuous telemetry: the windowed time-series layer, the SLO
// burn-rate monitor and the cross-subsystem incident attributor
// (internal/obs Timeline).
type (
	// CombinedTrace renders spans, registry snapshot and timeline
	// counter tracks into one Perfetto artifact.
	CombinedTrace = obs.PerfettoTrace
	// ServeTimelineResult is the flap A/B of detection latency, burn
	// duration and recovery time across protection layers.
	ServeTimelineResult = exp.ServeTimelineResult
)

// ServeTimeline runs the DIMM-flap serving experiment with the timeline
// attached under admission off, re-route, and replication, attributing
// each burn window to the injected fault. Replays byte-identically from
// the seed.
func ServeTimeline(seed uint64) *ServeTimelineResult { return exp.ServeTimeline(seed) }

// NewSpanTracer builds a span tracer: sampleN is the 1-in-N sampling rate
// (<=1 traces everything), maxSpans bounds span retention (0 picks the
// default). All randomness derives from seed.
func NewSpanTracer(seed uint64, sampleN, maxSpans int) *SpanTracer {
	return obs.NewTracer(seed, sampleN, maxSpans)
}

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *Registry { return obs.NewRegistry() }

// ServeTraced runs one serving point with the observability plane on:
// spans cover every phase from client enqueue to response, and the
// simulated event stream is identical to the untraced ServeOnce run.
func ServeTraced(seed uint64, topo Topo, rate float64, closedWorkers, sampleN int) *ServeTraceResult {
	return exp.ServeTraced(seed, topo, rate, closedWorkers, sampleN)
}

// ServeTracedFaults is ServeTraced under the standard DIMM-flap plan;
// its trace artifacts replay byte-identically from the seed.
func ServeTracedFaults(seed uint64, topo Topo, rate float64, sampleN int) *ServeTraceResult {
	return exp.ServeTracedFaults(seed, topo, rate, sampleN)
}

// ServeAttrib traces every request on each configuration of the serving
// ladder (mcn0, mcn5, +batch, +batch+admit, +batch+mcnt) and reduces
// the spans to a paper-style per-phase latency-breakdown table.
func ServeAttrib(seed uint64) *ServeAttribResult { return exp.ServeAttrib(seed) }
