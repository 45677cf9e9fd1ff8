package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

// FaultSweepRow is one loss-rate point: iperf goodput under injected loss
// for the 10GbE baseline and two MCN configurations.
type FaultSweepRow struct {
	LossPct float64 // injected per-frame/message loss probability, percent
	EthBps  float64
	Mcn0Bps float64
	Mcn5Bps float64
}

// FaultSweepResult holds the sweep plus the seed that generated it (the
// whole sweep replays exactly from the seed).
type FaultSweepResult struct {
	Seed uint64
	Rows []FaultSweepRow
}

// DefaultFaultRates is the sweep's loss-probability ladder.
var DefaultFaultRates = []float64{0, 0.001, 0.01, 0.05}

// FaultSweep measures how goodput degrades with injected loss: the 10GbE
// cluster loses frames on every node<->switch cable, the MCN server loses
// messages on every memory channel. Recovery is whatever the TCP layer
// does (fast retransmit, exponential-backoff RTO) — the experiment shows
// the paper's transparency claim extends to fault handling: the same
// stack recovers on both fabrics.
func FaultSweep(seed uint64, rates []float64) *FaultSweepResult {
	if rates == nil {
		rates = DefaultFaultRates
	}
	res := &FaultSweepResult{Seed: seed}
	for _, rate := range rates {
		row := FaultSweepRow{LossPct: rate * 100}

		row.EthBps = runIperf(func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint) {
			c := cluster.NewEthCluster(k, 3, node.HostConfig(""))
			c.InjectFaults(faults.New(faults.Plan{Seed: seed, LinkDropProb: rate}))
			eps := c.Endpoints()
			return eps[0], eps[1:]
		})
		mcnAt := func(l core.OptLevel) float64 {
			return runIperf(func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint) {
				s := cluster.NewMcnServer(k, 4, l.Options())
				s.InjectFaults(faults.New(faults.Plan{Seed: seed, McnLossProb: rate}))
				eps := s.Endpoints()
				return eps[0], eps[1:3]
			})
		}
		row.Mcn0Bps = mcnAt(core.MCN0)
		row.Mcn5Bps = mcnAt(core.MCN5)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the sweep as a table (Gbps).
func (r *FaultSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iperf goodput vs injected loss (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "%8s %10s %10s %10s\n", "loss%", "10GbE", "mcn0", "mcn5")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.3f %10.2f %10.2f %10.2f\n",
			row.LossPct, row.EthBps*8/1e9, row.Mcn0Bps*8/1e9, row.Mcn5Bps*8/1e9)
	}
	return b.String()
}
