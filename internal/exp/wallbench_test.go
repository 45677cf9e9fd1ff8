package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestWallBenchRates(t *testing.T) {
	tcp := WallBenchRates(mustTopo("mcn5+batch"))
	if top := tcp[len(tcp)-1]; top != 1.4e6 {
		t.Fatalf("TCP ladder tops at %.0f, want 1.4M", top)
	}
	mcnt := WallBenchRates(mustTopo("mcn5+batch+mcnt"))
	if top := mcnt[len(mcnt)-1]; top != 2.4e6 {
		t.Fatalf("mcnt ladder tops at %.0f, want 2.4M", top)
	}
}

// One real low-rate point seeds the drift gate: the check must pass
// against an artifact measured by the same binary, a corrupted
// deterministic counter must be named exactly, and an inflated stored
// rate must exhaust its re-measurements and report the ratio.
func TestWallBenchCheck(t *testing.T) {
	const seed = 42
	pt := WallBenchOnce(seed, mustTopo("mcn5"), 200e3, 1)
	if pt.Events == 0 || pt.Requests == 0 || pt.WallSeconds <= 0 {
		t.Fatalf("degenerate point: %+v", pt)
	}
	if pt.EventsPerSec <= 0 || pt.ReqPerSec <= 0 {
		t.Fatalf("rates not derived: %+v", pt)
	}
	stored := &WallBenchResult{
		Seed:             seed,
		CalibSpinsPerSec: wallCalibrate(),
		Points:           []WallBenchPoint{pt},
	}

	s := stored.String()
	if !strings.Contains(s, "mcn5") || !strings.Contains(s, "ev/s") {
		t.Fatalf("String missing topo or rate column:\n%s", s)
	}
	check := func(art *WallBenchResult, tol float64) []string {
		raw, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		got, drift := recheckWallBench(art, tol)
		_, d := diffJSON(got, raw)
		return append(drift, d...)
	}

	// Same binary, same seed: every deterministic counter matches. The
	// near-total tolerance keeps the hardware-dependent rate column from
	// flaking the assertion on a loaded machine.
	if drift := check(stored, 0.99); len(drift) != 0 {
		t.Fatalf("clean artifact reported drift: %v", drift)
	}

	// Corrupt one deterministic counter and inflate the stored rate past
	// any honest measurement: the gate must name the counter and, after
	// its bounded re-measurements, flag the rate ratio.
	bad := &WallBenchResult{Seed: seed, CalibSpinsPerSec: stored.CalibSpinsPerSec}
	bad.Points = append([]WallBenchPoint(nil), stored.Points...)
	bad.Points[0].Switches++
	bad.Points[0].EventsPerSec *= 1e6
	drift := check(bad, wallTol)
	var sawCounter, sawRate bool
	for _, d := range drift {
		if strings.Contains(d, "points[mcn5@200000].switches") {
			sawCounter = true
		}
		if strings.Contains(d, "below the artifact") {
			sawRate = true
		}
	}
	if !sawCounter || !sawRate {
		t.Fatalf("corrupted artifact: counter drift %v, rate drift %v in %v",
			sawCounter, sawRate, drift)
	}
}
