// Package exp regenerates every table and figure of the paper's evaluation
// (Sec. VI): Fig. 8(a-c) network bandwidth and latency, Table III latency
// breakdowns, Fig. 9 aggregate memory bandwidth, Fig. 10 energy, Fig. 11
// NPB execution time, and the abstract's headline numbers. Each generator
// builds fresh topologies, runs the workloads, and returns typed rows plus
// a formatted text rendition shaped like the paper's presentation.
//
// Absolute values depend on this simulator's cost tables; the quantities
// meant to match the paper are orderings, ratios and crossovers.
package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/npb"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/workloads"
)

// Scale trades fidelity for run time in the workload-driven experiments
// (Figs. 9-11); 1.0 is the default working-set multiplier.
type Scale float64

// QuickScale is small enough for test suites; bench runs may raise it.
const QuickScale Scale = 0.05

// runIperf builds the given topology, runs iperf for the measurement
// window and returns aggregate goodput in bytes/sec.
func runIperf(build func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint)) float64 {
	k := sim.NewKernel()
	server, clients := build(k)
	// A longer window lets TCP climb out of slow start; the paper notes
	// congestion control needs time to reach full utilization (Sec. VII).
	res := workloads.Iperf(k, server, clients, 5201, 6*sim.Millisecond, 18*sim.Millisecond)
	k.RunUntil(sim.Time(60 * sim.Millisecond))
	bw := res.GoodputBps
	k.Shutdown()
	return bw
}

// Iperf10GbE measures the baseline: one server, four clients behind the
// ToR switch (clients share the server's single 10G port, as in the
// paper's one-NIC-per-node setup).
func Iperf10GbE() float64 {
	return runIperf(func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint) {
		eps := cluster.NewEthCluster(k, 5, node.HostConfig("")).Endpoints()
		return eps[0], eps[1:]
	})
}

// IperfHostMcn measures the host-mcn configuration at one optimization
// level: server on the host, clients on four MCN DIMMs.
func IperfHostMcn(l core.OptLevel) float64 {
	return runIperf(func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint) {
		eps := cluster.NewMcnServer(k, 8, l.Options()).Endpoints()
		return eps[0], eps[1:5]
	})
}

// IperfMcnMcn measures the mcn-mcn configuration: server on an MCN DIMM,
// clients on the host and three other DIMMs.
func IperfMcnMcn(l core.OptLevel) float64 {
	return runIperf(func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint) {
		eps := cluster.NewMcnServer(k, 8, l.Options()).Endpoints()
		return eps[1], append([]cluster.Endpoint{eps[0]}, eps[2:5]...)
	})
}

// ranks places MPI ranks: hostRanks on host, then perDimm on each of
// dimms in order.
func ranks(host cluster.Endpoint, hostRanks int, dimms []cluster.Endpoint, perDimm int) []cluster.Endpoint {
	eps := make([]cluster.Endpoint, 0, hostRanks+len(dimms)*perDimm)
	for i := 0; i < hostRanks; i++ {
		eps = append(eps, host)
	}
	for _, d := range dimms {
		for i := 0; i < perDimm; i++ {
			eps = append(eps, d)
		}
	}
	return eps
}

// mpiRun launches fn at the given scale as one MPI rank per endpoint and
// runs k to quiescence, at most 600 simulated seconds, so that the
// memory and energy counters the caller reads next include the traffic
// still draining after the ranks finish. It returns the job's elapsed
// time and panics, naming what, if the job did not finish.
func mpiRun(k *sim.Kernel, eps []cluster.Endpoint, fn npb.KernelFunc, scale Scale, what string) sim.Duration {
	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) { fn(r, float64(scale)) })
	k.RunUntil(sim.Time(600 * sim.Second))
	if !w.Done() {
		panic(what + " did not finish")
	}
	return w.Elapsed()
}

// scaleUpRun runs fn with n ranks over loopback on one conventional
// server of the given core count, and returns the job's elapsed time and
// the server's DRAM bytes.
func scaleUpRun(fn npb.KernelFunc, cores, n int, scale Scale, what string) (sim.Duration, int64) {
	k := sim.NewKernel()
	defer k.Shutdown()
	h := cluster.NewScaleUp(k, cores)
	el := mpiRun(k, ranks(cluster.Endpoint{Node: h.Node, IP: netstack.Loopback}, n, nil, 0), fn, scale, what)
	return el, h.TotalDRAMBytes()
}

// Fig8aRow is one bar group of Fig. 8(a).
type Fig8aRow struct {
	Level   core.OptLevel
	HostMcn float64 // normalized to the 10GbE aggregate
	McnMcn  float64
}

// Fig8aResult is the full figure.
type Fig8aResult struct {
	BaselineBps float64
	Rows        []Fig8aRow
}

// Fig8a regenerates Fig. 8(a): iperf bandwidth for mcn0..mcn5, host-mcn
// and mcn-mcn, normalized to 10GbE.
func Fig8a() *Fig8aResult {
	base := Iperf10GbE()
	res := &Fig8aResult{BaselineBps: base}
	for _, l := range core.Levels() {
		res.Rows = append(res.Rows, Fig8aRow{
			Level:   l,
			HostMcn: IperfHostMcn(l) / base,
			McnMcn:  IperfMcnMcn(l) / base,
		})
	}
	return res
}

func (r *Fig8aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8(a): iperf bandwidth normalized to 10GbE (baseline %.2f Gbps)\n", r.BaselineBps*8/1e9)
	fmt.Fprintf(&b, "%-6s %9s %9s\n", "level", "host-mcn", "mcn-mcn")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %9.2f %9.2f\n", row.Level, row.HostMcn, row.McnMcn)
	}
	return b.String()
}

// PingSizes are the payload sizes of Fig. 8(b)/(c).
var PingSizes = []int{16, 256, 1024, 4096, 8192}

// Fig8Latency holds one of the latency figures: RTTs by payload size and
// level, normalized to the 10GbE 16-byte RTT.
type Fig8Latency struct {
	Name    string
	Base16B sim.Duration
	BaseRTT map[int]sim.Duration
	Rows    map[core.OptLevel]map[int]sim.Duration
}

func (f *Fig8Latency) norm(l core.OptLevel, size int) float64 {
	return float64(f.Rows[l][size]) / float64(f.Base16B)
}

func (f *Fig8Latency) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ping RTT normalized to 10GbE 16B RTT (%.2fus)\n", f.Name, f.Base16B.Microseconds())
	fmt.Fprintf(&b, "%-6s", "level")
	for _, s := range PingSizes {
		fmt.Fprintf(&b, " %8dB", s)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-6s", "10GbE")
	for _, s := range PingSizes {
		fmt.Fprintf(&b, " %9.2f", float64(f.BaseRTT[s])/float64(f.Base16B))
	}
	fmt.Fprintln(&b)
	for _, l := range core.Levels() {
		fmt.Fprintf(&b, "%-6s", l)
		for _, s := range PingSizes {
			fmt.Fprintf(&b, " %9.2f", f.norm(l, s))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ping runs a PingSweep over sizes, 5 pings each, from endpoint from
// to endpoint to of the topology build returns, and returns the mean
// RTT per size.
func ping(sizes []int, from, to int, build func(k *sim.Kernel) []cluster.Endpoint) map[int]sim.Duration {
	k := sim.NewKernel()
	eps := build(k)
	res := workloads.PingSweep(k, eps[from], eps[to].IP, sizes, 5)
	k.RunUntil(sim.Time(sim.Second))
	k.Shutdown()
	return res
}

// baselinePing measures node-to-node 10GbE RTTs per payload size.
func baselinePing() map[int]sim.Duration {
	return ping(PingSizes, 0, 1, func(k *sim.Kernel) []cluster.Endpoint {
		return cluster.NewEthCluster(k, 2, node.HostConfig("")).Endpoints()
	})
}

// mcnPing measures RTTs per payload size between endpoints from and to
// (0 is the host, 1 and 2 its DIMMs) of a 2-DIMM MCN server at level l.
func mcnPing(l core.OptLevel, sizes []int, from, to int) map[int]sim.Duration {
	return ping(sizes, from, to, func(k *sim.Kernel) []cluster.Endpoint {
		return cluster.NewMcnServer(k, 2, l.Options()).Endpoints()
	})
}

// Fig8b regenerates Fig. 8(b): host to MCN node RTT across payload sizes
// and optimization levels.
func Fig8b() *Fig8Latency { return pingFigure("Fig 8(b) host-mcn", 0, 1) }

// Fig8c regenerates Fig. 8(c): MCN node to MCN node RTT (through the host
// forwarding engine).
func Fig8c() *Fig8Latency { return pingFigure("Fig 8(c) mcn-mcn", 1, 2) }

func pingFigure(name string, from, to int) *Fig8Latency {
	f := &Fig8Latency{
		Name:    name,
		BaseRTT: baselinePing(),
		Rows:    make(map[core.OptLevel]map[int]sim.Duration),
	}
	f.Base16B = f.BaseRTT[16]
	for _, l := range core.Levels() {
		f.Rows[l] = mcnPing(l, PingSizes, from, to)
	}
	return f
}
