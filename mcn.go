// Package mcn is the public API of the Memory Channel Network (MCN)
// simulator, a full reimplementation of "Application-Transparent
// Near-Memory Processing Architecture with Memory Channel Network"
// (MICRO 2018).
//
// The package re-exports the library surface of the internal packages:
//
//   - the deterministic simulation kernel (NewKernel, Proc, Time),
//   - topology builders (NewMcnServer, NewEthCluster, NewMcnRack,
//     NewContutto),
//   - the MCN optimization levels mcn0..mcn5 (Table I of the paper),
//   - the software that runs unmodified over either network: a mini-MPI
//     (LaunchMPI), MapReduce, a key/value store, iperf and ping, and
//   - fault injection, packet capture and the serving tier's
//     observability plane.
//
// The paper's tables and figures are regenerated by cmd/mcn-experiments,
// the serving benchmark by cmd/mcn-serve.
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
	"github.com/mcn-arch/mcn/internal/exp"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/mapreduce"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/sim"
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

// NewMcnServer builds an MCN-enabled server with nDimms MCN DIMMs.
func NewMcnServer(k *Kernel, nDimms int, opts Options) *McnServer {
	return cluster.NewMcnServer(k, nDimms, opts)
}

// NewEthCluster builds a 10GbE scale-out cluster of n Table II nodes.
func NewEthCluster(k *Kernel, n int) *EthCluster {
	return cluster.NewEthCluster(k, n, node.HostConfig(""))
}

// NewMcnRack builds nServers MCN servers (dimmsPer DIMMs each) behind one
// top-of-rack switch (the Sec. III-B / Sec. VII multi-host scenario).
func NewMcnRack(k *Kernel, nServers, dimmsPer int, opts Options) *McnRack {
	return cluster.NewMcnRack(k, nServers, dimmsPer, opts)
}

// NewContutto builds the FPGA proof-of-concept prototype (Sec. V).
func NewContutto(k *Kernel) *Prototype { return node.NewContutto(k) }

// Distributed computing.
type (
	// World is one MPI job.
	World = mpi.World
	// Rank is one MPI process.
	Rank = mpi.Rank
	// Program is the per-rank body of an MPI job.
	Program = mpi.Program
)

// LaunchMPI starts an MPI job with one rank per endpoint.
func LaunchMPI(k *Kernel, eps []Endpoint, basePort uint16, prog Program) *World {
	return mpi.Launch(k, eps, basePort, prog)
}

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

// DiscussionResult is the Sec. VII comparison: TCP's ACK overhead on MCN
// and the gains of the channel-native mcnt transport over it.
type DiscussionResult = exp.DiscussionResult

// Discussion quantifies Sec. VII: TCP's ACK overhead on MCN and the gains
// of the channel-native mcnt transport over it.
func Discussion() *DiscussionResult { return exp.Discussion() }

// Serving tier: load generation, shard routing and tail-latency
// telemetry for running MCN as a key/value cache tier.

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
// suffixes in any order ("mcn5+batch+repl").
func ParseTopo(s string) (Topo, error) { return exp.ParseTopo(s) }

// ServeFaultsResult is the serving run with a DIMM flap mid-window.
type ServeFaultsResult = exp.ServeFaultsResult

// ServeFaults runs topo (an MCN fabric) with one DIMM flapping offline
// during the measured window and reports the degraded shard. The planes
// topo switches on decide what the flap exercises: breaker-driven
// re-routing (Admit), backup failover and post-run replica convergence
// (Repl), go-back-N recovery audited to zero credit drift (Mcnt),
// operator traffic (Ops). The run replays byte-identically from the seed.
func ServeFaults(seed uint64, topo Topo) *ServeFaultsResult { return exp.ServeFaults(seed, topo) }

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
)

// DefaultMcntParams is the transport tuning the "+mcnt" topologies use.
func DefaultMcntParams() McntParams { return mcnt.DefaultParams() }

// AttachMcnt installs the mcnt transport on an MCN server: one reliable
// link per host<->DIMM channel, multiplexing any number of streams. Use
// Fabric.TransportFor to place endpoints on it.
func AttachMcnt(k *Kernel, h *Host, pr McntParams) *McntFabric { return mcnt.Attach(k, h, pr) }

// Observability: end-to-end request spans, the unified metrics registry,
// the Perfetto/Chrome trace export and the windowed timeline with its
// SLO burn-rate monitor (internal/obs).
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

// ServeTraced runs one serving point on topo with the observability plane
// on; closedWorkers > 0 switches to the closed-loop driver and ignores
// rate. Spans cover every phase from client enqueue to response, and the
// simulated event stream is identical to the untraced run's.
func ServeTraced(seed uint64, topo Topo, rate float64, closedWorkers, sampleN int) *ServeTraceResult {
	return exp.ServeTraced(seed, topo, rate, closedWorkers, sampleN)
}

// ServeTracedFaults is ServeTraced under the standard DIMM-flap plan;
// its trace artifacts replay byte-identically from the seed.
func ServeTracedFaults(seed uint64, topo Topo, rate float64, sampleN int) *ServeTraceResult {
	return exp.ServeTracedFaults(seed, topo, rate, sampleN)
}
