package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/energy"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/workloads"
)

// Fig10Point compares an MCN server with D DIMMs against an equal-core
// scale-out cluster (paper pairing: 2/4/6/8 DIMMs vs 2/3/4/5 nodes).
type Fig10Point struct {
	Dimms, Nodes int
}

// Fig10Points is the x-axis of Fig. 10.
var Fig10Points = []Fig10Point{{2, 2}, {4, 3}, {6, 4}, {8, 5}}

// Fig10Result holds, per workload and point, the MCN server's energy
// normalized to the scale-out cluster's (values < 1 mean MCN saves
// energy; the paper reports average savings of 23.5/37.7/45.5/57.5%).
type Fig10Result struct {
	Workloads []string
	Norm      map[string][]float64
	AvgSaving []float64 // 1 - mean(norm)
}

func (f *Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 10: MCN server energy normalized to an equal-core 10GbE scale-out cluster")
	fmt.Fprintf(&b, "%-10s", "workload")
	for _, pt := range Fig10Points {
		fmt.Fprintf(&b, " %4dD/%dN", pt.Dimms, pt.Nodes)
	}
	fmt.Fprintln(&b)
	for _, w := range f.Workloads {
		fmt.Fprintf(&b, "%-10s", w)
		for _, v := range f.Norm[w] {
			fmt.Fprintf(&b, " %8.2f", v)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s", "saving")
	for _, v := range f.AvgSaving {
		fmt.Fprintf(&b, " %7.1f%%", v*100)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// runMcnEnergy runs a workload on a dimms-DIMM MCN server at level l,
// with hostRanks ranks on the host and one per DIMM, and returns the
// job's elapsed time and the server's energy.
func runMcnEnergy(name string, dimms int, l core.OptLevel, hostRanks int, scale Scale, pw energy.Power) (sim.Duration, float64) {
	k := sim.NewKernel()
	defer k.Shutdown()
	s := cluster.NewMcnServer(k, dimms, l.Options())
	eps := s.Endpoints()
	el := mpiRun(k, ranks(eps[0], hostRanks, eps[1:], 1), workloads.Suite[name], scale,
		fmt.Sprintf("%s on an MCN server with %d dimms", name, dimms))
	return el, pw.McnServerEnergy(s, el)
}

// runClusterEnergy runs a workload with n ranks dealt round-robin over
// an equal-core scale-out cluster of the given size, and returns the
// job's elapsed time and the cluster's energy.
func runClusterEnergy(name string, nodes, n int, scale Scale, pw energy.Power) (sim.Duration, float64) {
	k := sim.NewKernel()
	defer k.Shutdown()
	c := cluster.NewEthCluster(k, nodes, node.HostConfig(""))
	all := c.Endpoints()
	eps := make([]cluster.Endpoint, n)
	for i := range eps {
		eps[i] = all[i%nodes]
	}
	el := mpiRun(k, eps, workloads.Suite[name], scale, fmt.Sprintf("%s on %d nodes", name, nodes))
	return el, pw.EthClusterEnergy(c, el)
}

// Fig10 regenerates the figure over the given workload subset (nil means
// the full suite).
func Fig10(names []string, scale Scale) *Fig10Result {
	if names == nil {
		names = workloads.SuiteNames
	}
	pw := energy.Default()
	res := &Fig10Result{Workloads: names, Norm: make(map[string][]float64), AvgSaving: make([]float64, len(Fig10Points))}
	for _, name := range names {
		row := make([]float64, len(Fig10Points))
		for i, pt := range Fig10Points {
			// The paper's equal-core placement: 2 ranks on the host + 1
			// per DIMM against the same rank count on the cluster.
			_, em := runMcnEnergy(name, pt.Dimms, core.MCN3, 2, scale, pw)
			_, ec := runClusterEnergy(name, pt.Nodes, 2+pt.Dimms, scale, pw)
			row[i] = em / ec
			res.AvgSaving[i] += (1 - em/ec) / float64(len(names))
		}
		res.Norm[name] = row
	}
	return res
}
