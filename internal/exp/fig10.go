package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/energy"
	"github.com/mcn-arch/mcn/internal/mpi"
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

// runMcnEnergy runs a workload on an MCN server with the paper's
// equal-core rank placement (2 ranks on the host + 1 per DIMM) and
// returns consumed energy.
func runMcnEnergy(name string, dimms int, scale Scale, pw energy.Power) float64 {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, dimms, core.MCN3.Options())
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}
	eps := []cluster.Endpoint{hostEp, hostEp}
	eps = append(eps, s.McnEndpoints()...)
	fn := workloads.Suite[name]
	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) { fn(r, float64(scale)) })
	k.RunUntil(sim.Time(600 * sim.Second))
	if !w.Done() {
		panic(fmt.Sprintf("fig10: %s on %d dimms did not finish", name, dimms))
	}
	e := pw.McnServerEnergy(s, w.Elapsed())
	k.Shutdown()
	return e
}

// runClusterEnergy runs the same rank count (2 + dimms) on an equal-core
// scale-out cluster and returns consumed energy.
func runClusterEnergy(name string, nodes, ranks int, scale Scale, pw energy.Power) float64 {
	k := sim.NewKernel()
	c := cluster.NewEthCluster(k, nodes, node.HostConfig(""))
	eps := make([]cluster.Endpoint, 0, ranks)
	all := c.Endpoints()
	for i := 0; i < ranks; i++ {
		eps = append(eps, all[i%len(all)])
	}
	fn := workloads.Suite[name]
	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) { fn(r, float64(scale)) })
	k.RunUntil(sim.Time(600 * sim.Second))
	if !w.Done() {
		panic(fmt.Sprintf("fig10: %s on %d nodes did not finish", name, nodes))
	}
	e := pw.EthClusterEnergy(c, w.Elapsed())
	k.Shutdown()
	return e
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
			em := runMcnEnergy(name, pt.Dimms, scale, pw)
			ec := runClusterEnergy(name, pt.Nodes, 2+pt.Dimms, scale, pw)
			row[i] = em / ec
			res.AvgSaving[i] += (1 - em/ec) / float64(len(names))
		}
		res.Norm[name] = row
	}
	return res
}
