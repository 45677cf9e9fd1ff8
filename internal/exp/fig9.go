package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
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

// aggregateBWMcn runs one workload on an MCN3 server with four ranks on
// the host plus one per DIMM (the host application spreads onto the
// near-memory processors), and returns total DRAM bytes / elapsed.
func aggregateBWMcn(name string, dimms int, scale Scale) float64 {
	k := sim.NewKernel()
	defer k.Shutdown()
	s := cluster.NewMcnServer(k, dimms, core.MCN3.Options())
	eps := s.Endpoints()
	el := mpiRun(k, ranks(eps[0], 4, eps[1:], 1), workloads.Suite[name], scale,
		fmt.Sprintf("fig9: %s with %d dimms", name, dimms))
	return float64(s.TotalDRAMBytes()) / el.Seconds()
}

// aggregateBWConventional is aggregateBWMcn's baseline: four ranks on an
// 8-core conventional server.
func aggregateBWConventional(name string, scale Scale) float64 {
	el, bytes := scaleUpRun(workloads.Suite[name], 8, 4, scale, "fig9: "+name+" conventional")
	return float64(bytes) / el.Seconds()
}

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
