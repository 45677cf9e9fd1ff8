package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// WallBenchPoint is the simulator's event budget for one serving topology
// and offered load: how much kernel work (events, pushes, wheel pushes,
// process switches and spawns) the run costs. Every column is
// deterministic for a fixed seed, so the drift gate compares them exactly
// and any mismatch means the event stream itself changed. How fast the
// host chews through that budget is benchmark/'s question, not this one.
type WallBenchPoint struct {
	Topo    string  `json:"topo"`
	RateRps float64 `json:"rate_rps"`

	SimSeconds float64 `json:"sim_seconds"`
	Events     uint64  `json:"events"` // kernel pops, incl. stale wakes
	Requests   int     `json:"requests"`

	Pushes      uint64 `json:"pushes"`
	WheelPushes uint64 `json:"wheel_pushes"`
	ProcWakes   uint64 `json:"proc_wakes"`
	Switches    uint64 `json:"switches"`
	StaleWakes  uint64 `json:"stale_wakes"`
	Spawns      uint64 `json:"spawns"`
	Shells      uint64 `json:"shells"`
}

// WallBenchResult is the artifact written to BENCH_wallclock.json.
type WallBenchResult struct {
	Seed   uint64           `json:"seed"`
	Points []WallBenchPoint `json:"points"`
}

// WallBenchRates returns the canonical ladder for one topology: the TCP
// topologies stop at their knee, the mcnt transport sweeps to the rate
// the ISSUE's 2x target is measured at.
func WallBenchRates(topo Topo) []float64 {
	if topo.Mcnt {
		return []float64{200e3, 800e3, 2.4e6}
	}
	return []float64{200e3, 800e3, 1.4e6}
}

// WallBenchTopos are the canonical topologies the event budget tracks.
var WallBenchTopos = []Topo{
	{Fabric: "mcn5"}, {Fabric: "mcn5", Batch: true}, {Fabric: "mcn5", Batch: true, Mcnt: true},
}

// WallBenchOnce runs one serving point and reports its kernel counters.
func WallBenchOnce(seed uint64, topo Topo, rate float64) WallBenchPoint {
	k := sim.NewKernel()
	cfg, _ := topo.build(k, seed, rate)
	res := serve.Run(k, cfg)
	st := k.Stats()
	simSec := sim.Duration(k.Now()).Seconds()
	k.Shutdown()
	return WallBenchPoint{
		Topo:        topo.String(),
		RateRps:     rate,
		SimSeconds:  simSec,
		Events:      st.Pops,
		Requests:    int(res.N),
		Pushes:      st.Pushes,
		WheelPushes: st.WheelPushes,
		ProcWakes:   st.ProcWakes,
		Switches:    st.Switches,
		StaleWakes:  st.StaleWakes,
		Spawns:      st.Spawns,
		Shells:      st.Shells,
	}
}

// WallBench sweeps the canonical topologies over their rate ladders,
// producing the BENCH_wallclock.json artifact body.
func WallBench(seed uint64) *WallBenchResult {
	res := &WallBenchResult{Seed: seed}
	for _, topo := range WallBenchTopos {
		for _, rate := range WallBenchRates(topo) {
			res.Points = append(res.Points, WallBenchOnce(seed, topo, rate))
		}
	}
	return res
}

func (r *WallBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim-kernel event budget (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "%-20s %10s %10s %9s %10s %9s\n",
		"topo", "rate", "events", "requests", "switches", "spawns")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-20s %10.0f %10d %9d %10d %9d\n",
			p.Topo, p.RateRps, p.Events, p.Requests, p.Switches, p.Spawns)
	}
	return b.String()
}
