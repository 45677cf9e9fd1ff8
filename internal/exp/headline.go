package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/energy"
)

// HeadlineResult reproduces the abstract's summary numbers:
//   - iperf bandwidth improvement of the best MCN over 10GbE (paper 456.5%)
//   - ping latency reduction (paper 78.1%)
//   - throughput and energy of a server with 8 MCN DIMMs against a 9-node
//     10GbE cluster (paper 4.56x higher throughput, 47.5% less energy)
//   - peak aggregate DRAM bandwidth scaling (paper up to 8.17x)
type HeadlineResult struct {
	BandwidthGain float64 // (mcn5 / 10GbE) - 1
	LatencyCut    float64 // 1 - (mcn5 16B RTT / 10GbE 16B RTT)
	Throughput    float64 // cluster time / MCN time on the suite subset
	EnergyCut     float64 // 1 - E_mcn/E_cluster
	PeakAggBW     float64 // Fig. 9 max
}

func (h *HeadlineResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Headline (abstract) numbers, measured / (paper):")
	fmt.Fprintf(&b, "  iperf bandwidth gain over 10GbE:     %+.1f%%  (+456.5%%)\n", h.BandwidthGain*100)
	fmt.Fprintf(&b, "  ping latency reduction vs 10GbE:     %.1f%%   (78.1%%)\n", h.LatencyCut*100)
	fmt.Fprintf(&b, "  throughput vs 9-node cluster:        %.2fx   (4.56x)\n", h.Throughput)
	fmt.Fprintf(&b, "  energy saving vs 9-node cluster:     %.1f%%   (47.5%%)\n", h.EnergyCut*100)
	fmt.Fprintf(&b, "  peak aggregate DRAM bandwidth:       %.2fx   (8.17x)\n", h.PeakAggBW)
	return b.String()
}

// Headline computes the summary numbers. names selects the workload subset
// for the throughput/energy comparison (nil = a representative memory-bound
// trio to bound run time).
func Headline(names []string, scale Scale) *HeadlineResult {
	if names == nil {
		names = []string{"mg", "ft", "grep"}
	}
	res := &HeadlineResult{}

	// Network numbers at the highest optimization level.
	base := Iperf10GbE()
	res.BandwidthGain = IperfHostMcn(core.MCN5)/base - 1

	basePing := baselinePing()[16]
	res.LatencyCut = 1 - float64(mcnPing(core.MCN5, []int{16}, 0, 1)[16])/float64(basePing)

	// Throughput + energy: 8-DIMM MCN server (one rank on the host and
	// one per DIMM) vs 9-node cluster, average over the subset.
	pw := energy.Default()
	var tRatio, eRatio float64
	for _, name := range names {
		tm, em := runMcnEnergy(name, 8, core.MCN5, 1, scale, pw)
		tc, ec := runClusterEnergy(name, 9, 9, scale, pw)
		tRatio += float64(tc) / float64(tm) / float64(len(names))
		eRatio += em / ec / float64(len(names))
	}
	res.Throughput = tRatio
	res.EnergyCut = 1 - eRatio

	fig9 := Fig9([]string{"mg", "grep"}, scale)
	res.PeakAggBW = fig9.Max
	return res
}
