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

// One real low-rate point seeds the drift gate: a regeneration by the
// same binary must compare clean, and a corrupted counter must be named
// exactly.
func TestWallBenchCheck(t *testing.T) {
	const seed = 42
	pt := WallBenchOnce(seed, mustTopo("mcn5"), 200e3)
	if pt.Events == 0 || pt.Requests == 0 || pt.Switches == 0 {
		t.Fatalf("degenerate point: %+v", pt)
	}
	stored := &WallBenchResult{Seed: seed, Points: []WallBenchPoint{pt}}
	if s := stored.String(); !strings.Contains(s, "mcn5") || !strings.Contains(s, "switches") {
		t.Fatalf("String missing topo or counter column:\n%s", s)
	}
	fresh := &WallBenchResult{Seed: seed, Points: []WallBenchPoint{WallBenchOnce(seed, mustTopo("mcn5"), 200e3)}}
	check := func(art *WallBenchResult) []string {
		raw, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		_, drift := diffJSON(fresh, raw)
		return drift
	}
	if drift := check(stored); len(drift) != 0 {
		t.Fatalf("clean regeneration reported drift: %v", drift)
	}
	bad := &WallBenchResult{Seed: seed, Points: []WallBenchPoint{pt}}
	bad.Points[0].Switches++
	if drift := check(bad); len(drift) != 1 || !strings.HasPrefix(drift[0], "points[mcn5@200000].switches: ") {
		t.Fatalf("corrupted artifact: drift %q", drift)
	}
}
