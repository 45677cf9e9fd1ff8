package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/npb"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Fig11Steps is the x-axis of Fig. 11: step i compares a scale-up server
// with 4*(i+1) cores against an MCN server with a 4-core host and i MCN
// DIMMs; step 0 is the common 4-core baseline.
var Fig11Steps = []int{0, 1, 2, 3}

// Fig11Result holds execution times normalized to the 4-core baseline.
type Fig11Result struct {
	Kernels []string
	ScaleUp map[string][]float64 // per step
	Mcn     map[string][]float64 // per step (step 0 equals ScaleUp[0])
	// AvgImprovement[i] is the mean (1 - mcn/scaleup) at step i>=1;
	// paper: 27.2/42.9/45.3%.
	AvgImprovement []float64
}

func (f *Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 11: NPB execution time normalized to a 4-core conventional server")
	fmt.Fprintf(&b, "%-8s %-8s", "kernel", "system")
	for _, s := range Fig11Steps {
		fmt.Fprintf(&b, " %7d", s)
	}
	fmt.Fprintln(&b)
	for _, kn := range f.Kernels {
		fmt.Fprintf(&b, "%-8s %-8s", kn, "scaleup")
		for _, v := range f.ScaleUp[kn] {
			fmt.Fprintf(&b, " %7.2f", v)
		}
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "%-8s %-8s", "", "mcn")
		for _, v := range f.Mcn[kn] {
			fmt.Fprintf(&b, " %7.2f", v)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "avg improvement vs scale-up:")
	for i, v := range f.AvgImprovement {
		fmt.Fprintf(&b, " step%d=%.1f%%", i+1, v*100)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// fig11ScaleUp runs kernel name with `cores` ranks on one big node.
func fig11ScaleUp(name string, cores int, scale Scale) sim.Duration {
	el, _ := scaleUpRun(npb.Kernels[name], cores, cores, scale, fmt.Sprintf("fig11: %s scale-up %d cores", name, cores))
	return el
}

// fig11Mcn runs kernel name on a 4-core host plus dimms MCN DIMMs, with 4
// ranks on the host and 4 per DIMM (one rank per core everywhere).
func fig11Mcn(name string, dimms int, scale Scale) sim.Duration {
	k := sim.NewKernel()
	defer k.Shutdown()
	hostCfg := node.HostConfig("host")
	hostCfg.Cores = 4
	h := node.NewHost(k, hostCfg)
	s := &cluster.McnServer{K: k, Host: h, Mcns: h.AttachMCN(dimms, core.MCN3.Options(), node.McnConfig(""))}
	eps := s.Endpoints()
	return mpiRun(k, ranks(eps[0], 4, eps[1:], 4), npb.Kernels[name], scale,
		fmt.Sprintf("fig11: %s mcn %d dimms", name, dimms))
}

// Fig11 regenerates the figure for the given kernels (nil = all NPB).
func Fig11(kernels []string, scale Scale) *Fig11Result {
	if kernels == nil {
		kernels = npb.Names
	}
	res := &Fig11Result{
		Kernels:        kernels,
		ScaleUp:        make(map[string][]float64),
		Mcn:            make(map[string][]float64),
		AvgImprovement: make([]float64, len(Fig11Steps)-1),
	}
	for _, kn := range kernels {
		base := fig11ScaleUp(kn, 4, scale)
		su := []float64{1}
		mc := []float64{1}
		for _, step := range Fig11Steps[1:] {
			cores := 4 * (step + 1)
			tUp := fig11ScaleUp(kn, cores, scale)
			tMc := fig11Mcn(kn, step, scale)
			su = append(su, float64(tUp)/float64(base))
			mc = append(mc, float64(tMc)/float64(base))
			res.AvgImprovement[step-1] += (1 - float64(tMc)/float64(tUp)) / float64(len(kernels))
		}
		res.ScaleUp[kn] = su
		res.Mcn[kn] = mc
	}
	return res
}
