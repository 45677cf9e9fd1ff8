package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// WallBenchPoint is one wall-clock measurement of the simulator itself:
// how fast the kernel chews through events for one serving topology and
// offered load. The sim-side columns (Events, Pushes, wheel/self-wake
// splits, Requests) are deterministic for a fixed seed — only the wall
// seconds and the derived rates vary run to run — so drift gates may
// compare the event counts exactly and the rates within a tolerance.
type WallBenchPoint struct {
	Topo    string  `json:"topo"`
	RateRps float64 `json:"rate_rps"`

	WallSeconds float64 `json:"wall_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`

	Events       uint64  `json:"events"` // kernel pops, incl. stale wakes
	EventsPerSec float64 `json:"events_per_sec"`
	Requests     int     `json:"requests"`
	ReqPerSec    float64 `json:"req_per_sec"`

	Pushes      uint64 `json:"pushes"`
	WheelPushes uint64 `json:"wheel_pushes"`
	ProcWakes   uint64 `json:"proc_wakes"`
	SelfWakes   uint64 `json:"self_wakes"`
	Switches    uint64 `json:"switches"`
	StaleWakes  uint64 `json:"stale_wakes"`
	Spawns      uint64 `json:"spawns"`
	Shells      uint64 `json:"shells"`
}

// WallBenchResult is the artifact written to BENCH_wallclock.json.
// CalibSpinsPerSec is the machine-speed yardstick measured in the same
// invocation as the points: drift gates compare events/sec normalized by
// it, so the artifact transfers across hosts (and across the frequency
// wobble of one host) while still catching simulator slowdowns.
type WallBenchResult struct {
	Seed             uint64           `json:"seed"`
	CalibSpinsPerSec float64          `json:"calib_spins_per_sec"`
	Points           []WallBenchPoint `json:"points"`
}

// wallCalibrate measures a fixed arithmetic spin loop (best of five) and
// returns spins/sec. It is the denominator for cross-machine rate
// comparisons; the loop is pure ALU work so it tracks the same frequency
// scaling the simulator experiences.
func wallCalibrate() float64 {
	const spins = 1 << 22
	var sink uint64
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		s := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < spins; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
		}
		sink += s
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if sink == 0 { // defeat dead-code elimination; never taken in practice
		return 0
	}
	return spins / best.Seconds()
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

// WallBenchTopos are the canonical topologies the wall-clock gate tracks.
var WallBenchTopos = []Topo{
	{Fabric: "mcn5"}, {Fabric: "mcn5", Batch: true}, {Fabric: "mcn5", Batch: true, Mcnt: true},
}

// wallReps is the wall-clock repetitions per measured point, and wallTol
// the fractional events/sec shortfall the drift gate tolerates (the
// deterministic counters always compare exactly).
const (
	wallReps = 3
	wallTol  = 0.15
)

// WallBenchOnce runs one serving point and reports simulator throughput.
// Each measurement re-runs the point reps times (after one warm-up run)
// and keeps the median wall time: the median is far more stable across
// process invocations than best-of-N (an extreme statistic that inflates
// whenever one run lands in a quiet scheduling window), which matters
// because the drift gate compares measurements taken minutes or machines
// apart. The kernel stats come from the measured run and are identical
// across repetitions by construction.
func WallBenchOnce(seed uint64, topo Topo, rate float64, reps int) WallBenchPoint {
	run := func() (WallBenchPoint, time.Duration) {
		k := sim.NewKernel()
		cfg, _ := topo.build(k, seed, rate)
		t0 := time.Now()
		res := serve.Run(k, cfg)
		wall := time.Since(t0)
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
			SelfWakes:   st.SelfWakes,
			Switches:    st.Switches,
			StaleWakes:  st.StaleWakes,
			Spawns:      st.Spawns,
			Shells:      st.Shells,
		}, wall
	}
	run() // warm-up: page in code paths and steady-state the heap
	pt, first := run()
	walls := make([]time.Duration, 1, reps)
	walls[0] = first
	for i := 1; i < reps; i++ {
		_, wall := run()
		walls = append(walls, wall)
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	pt.WallSeconds = walls[(len(walls)-1)/2].Seconds()
	if pt.WallSeconds > 0 {
		pt.EventsPerSec = float64(pt.Events) / pt.WallSeconds
		pt.ReqPerSec = float64(pt.Requests) / pt.WallSeconds
	}
	return pt
}

// WallBench sweeps the canonical topologies over their rate ladders,
// producing the BENCH_wallclock.json artifact body.
func WallBench(seed uint64) *WallBenchResult {
	res := &WallBenchResult{Seed: seed, CalibSpinsPerSec: wallCalibrate()}
	for _, topo := range WallBenchTopos {
		for _, rate := range WallBenchRates(topo) {
			res.Points = append(res.Points, WallBenchOnce(seed, topo, rate, wallReps))
		}
	}
	return res
}

func (r *WallBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim-kernel wall-clock bench (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "%-20s %10s %9s %10s %10s %10s\n",
		"topo", "rate", "wall_ms", "events", "ev/s", "req/s")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-20s %10.0f %9.1f %10d %10.2e %10.2e\n",
			p.Topo, p.RateRps, p.WallSeconds*1e3, p.Events, p.EventsPerSec, p.ReqPerSec)
	}
	return b.String()
}

// recheckWallBench is the wall-clock half of the drift gate: it re-runs
// one mid-ladder rate of each topology in the stored artifact and returns
// the fresh points for diffJSON — the kernel counters are deterministic
// for a fixed seed, so any mismatch there means the event stream itself
// changed — plus the verdict of the one rule diffJSON cannot apply. The
// wall-clock event rate is hardware-dependent, so it only has to land
// within tol (fractional) of the artifact; the mid point is used because
// the lowest rung finishes in tens of milliseconds, short enough for
// frequency ramp and GC phase to swamp the rate.
func recheckWallBench(stored *WallBenchResult, tol float64) (got *WallBenchResult, drift []string) {
	byTopo := map[string][]WallBenchPoint{}
	var order []string
	for _, p := range stored.Points {
		if _, ok := byTopo[p.Topo]; !ok {
			order = append(order, p.Topo)
		}
		byTopo[p.Topo] = append(byTopo[p.Topo], p)
	}
	got = &WallBenchResult{Seed: stored.Seed, CalibSpinsPerSec: wallCalibrate()}
	for _, name := range order {
		topo, err := ParseTopo(name)
		if err != nil {
			drift = append(drift, fmt.Sprintf("points[%s]: %v", name, err))
			continue
		}
		pts := byTopo[name]
		sort.Slice(pts, func(i, j int) bool { return pts[i].RateRps < pts[j].RateRps })
		p := pts[len(pts)/2]
		pt := WallBenchOnce(stored.Seed, topo, p.RateRps, wallReps)
		got.Points = append(got.Points, pt)
		if p.EventsPerSec <= 0 {
			continue
		}
		// Wall rates are the one nondeterministic column: a busy
		// scheduling window can depress a single measurement well past
		// any honest tolerance, so a miss earns up to two fresh
		// re-measurements before it counts as drift. A real regression
		// (the thing this gate exists for) fails every attempt.
		normalize := func(ev float64, spins float64) (float64, string) {
			if stored.CalibSpinsPerSec > 0 && spins > 0 {
				// Normalized by the spin yardstick, so a slower (or
				// merely throttled) host does not read as a simulator
				// regression.
				return ev / spins, "events/spin"
			}
			return ev, "events/sec"
		}
		want, unit := normalize(p.EventsPerSec, stored.CalibSpinsPerSec)
		have, _ := normalize(pt.EventsPerSec, got.CalibSpinsPerSec)
		for attempt := 0; have/want < 1-tol && attempt < 2; attempt++ {
			retry := WallBenchOnce(stored.Seed, topo, p.RateRps, wallReps)
			have, _ = normalize(retry.EventsPerSec, wallCalibrate())
		}
		if ratio := have / want; ratio < 1-tol {
			drift = append(drift, fmt.Sprintf(
				"points[%s@%.0f]: %s %.3g is %.0f%% below the artifact's %.3g (tolerance %.0f%%)",
				p.Topo, p.RateRps, unit, have, (1-ratio)*100, want, tol*100))
		}
	}
	return got, drift
}
