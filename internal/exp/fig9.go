package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/workloads"
)

// Fig9DimmCounts are the x-axis of Fig. 9.
var Fig9DimmCounts = []int{2, 4, 6, 8}

// Fig9Result holds aggregate memory bandwidth utilization normalized to
// the conventional server, per workload and DIMM count.
type Fig9Result struct {
	Workloads []string
	// Norm[name][i] corresponds to Fig9DimmCounts[i].
	Norm map[string][]float64
	// Avg[i] is the geometric-mean-free arithmetic average the paper
	// reports (1.76/2.6/3.3/3.9x).
	Avg []float64
	// Max is the best single observation (paper: up to 8.17x).
	Max float64
}

func (f *Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 9: aggregate memory bandwidth utilization, normalized to a conventional server")
	fmt.Fprintf(&b, "%-10s", "workload")
	for _, d := range Fig9DimmCounts {
		fmt.Fprintf(&b, " %6dD", d)
	}
	fmt.Fprintln(&b)
	for _, w := range f.Workloads {
		fmt.Fprintf(&b, "%-10s", w)
		for _, v := range f.Norm[w] {
			fmt.Fprintf(&b, " %7.2f", v)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s", "average")
	for _, v := range f.Avg {
		fmt.Fprintf(&b, " %7.2f", v)
	}
	fmt.Fprintf(&b, "\nmax %.2fx\n", f.Max)
	return b.String()
}

// aggregateBW runs one workload and returns total DRAM bytes / elapsed.
func aggregateBWMcn(name string, dimms int, scale Scale) float64 {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, dimms, core.MCN3.Options())
	// Four ranks on the host plus one per DIMM: the host application
	// spreads onto the near-memory processors.
	eps := make([]cluster.Endpoint, 0, 4+dimms)
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}
	for i := 0; i < 4; i++ {
		eps = append(eps, hostEp)
	}
	eps = append(eps, s.McnEndpoints()...)
	fn := workloads.Suite[name]
	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) { fn(r, float64(scale)) })
	k.RunUntil(sim.Time(600 * sim.Second))
	if !w.Done() {
		panic(fmt.Sprintf("fig9: %s with %d dimms did not finish", name, dimms))
	}
	bytes := s.TotalDRAMBytes()
	el := w.Elapsed().Seconds()
	k.Shutdown()
	return float64(bytes) / el
}

func aggregateBWConventional(name string, scale Scale) float64 {
	k := sim.NewKernel()
	h := cluster.NewScaleUp(k, 8)
	eps := make([]cluster.Endpoint, 4)
	for i := range eps {
		eps[i] = cluster.Endpoint{Node: h.Node, IP: loopbackIP()}
	}
	fn := workloads.Suite[name]
	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) { fn(r, float64(scale)) })
	k.RunUntil(sim.Time(600 * sim.Second))
	if !w.Done() {
		panic(fmt.Sprintf("fig9: %s conventional did not finish", name))
	}
	bytes := h.TotalDRAMBytes()
	el := w.Elapsed().Seconds()
	k.Shutdown()
	return float64(bytes) / el
}

func loopbackIP() (ip [4]byte) { return [4]byte{127, 0, 0, 1} }

// Fig9 regenerates the figure over the given workload subset (nil means
// the full suite).
func Fig9(names []string, scale Scale) *Fig9Result {
	if names == nil {
		names = workloads.SuiteNames
	}
	res := &Fig9Result{Workloads: names, Norm: make(map[string][]float64), Avg: make([]float64, len(Fig9DimmCounts))}
	for _, name := range names {
		base := aggregateBWConventional(name, scale)
		row := make([]float64, len(Fig9DimmCounts))
		for i, d := range Fig9DimmCounts {
			row[i] = aggregateBWMcn(name, d, scale) / base
			res.Avg[i] += row[i] / float64(len(names))
			if row[i] > res.Max {
				res.Max = row[i]
			}
		}
		res.Norm[name] = row
	}
	return res
}
