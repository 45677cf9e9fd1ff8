package faults

import (
	"bytes"
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

// Two injectors with the same plan must produce identical decision
// sequences, and different sites must draw independent streams.
func TestDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 7, LinkDropProb: 0.1, LinkCorruptProb: 0.05}
	run := func() []Verdict {
		in := New(plan)
		s := in.LinkSite("link/a")
		var out []Verdict
		for i := 0; i < 1000; i++ {
			out = append(out, s.Frame(0))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged: %v vs %v", i, a[i], b[i])
		}
	}

	in := New(plan)
	s1, s2 := in.LinkSite("link/a"), in.LinkSite("link/b")
	same := 0
	for i := 0; i < 1000; i++ {
		if s1.Frame(0) == s2.Frame(0) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("two differently named sites produced identical streams")
	}
}

func TestDropRateRoughlyHonored(t *testing.T) {
	in := New(Plan{Seed: 1, LinkDropProb: 0.1})
	s := in.LinkSite("l")
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Frame(0) == Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.08 || got > 0.12 {
		t.Fatalf("drop rate %.3f far from configured 0.1", got)
	}
	if s.C.Drops != int64(drops) {
		t.Fatalf("counter %d != observed %d", s.C.Drops, drops)
	}
}

func TestBurstLoss(t *testing.T) {
	in := New(Plan{Seed: 3, LinkDropProb: 0.05, BurstLen: 3})
	s := in.LinkSite("l")
	// Every random drop must be followed by exactly BurstLen-1 burst drops.
	run := 0
	for i := 0; i < 5000; i++ {
		v := s.Frame(0)
		if v == Drop {
			run++
		} else {
			if run != 0 && run < 3 {
				t.Fatalf("loss run of %d frames; bursts should span 3", run)
			}
			run = 0
		}
	}
	if s.C.Drops == 0 || s.C.BurstDrops != 2*s.C.Drops {
		t.Fatalf("burst accounting wrong: drops=%d burst=%d", s.C.Drops, s.C.BurstDrops)
	}
}

func TestFlapWindow(t *testing.T) {
	in := New(Plan{Seed: 5, PortFlaps: []Window{{
		Site: "l", Start: sim.Time(100), End: sim.Time(200),
	}}})
	s := in.LinkSite("l")
	if v := s.Frame(sim.Time(50)); v != Pass {
		t.Fatalf("before window: %v", v)
	}
	if v := s.Frame(sim.Time(150)); v != Drop {
		t.Fatalf("inside window: %v", v)
	}
	if v := s.Frame(sim.Time(200)); v != Pass {
		t.Fatalf("window end is exclusive: %v", v)
	}
	if s.C.FlapDrops != 1 {
		t.Fatalf("flap drops %d", s.C.FlapDrops)
	}
}

func TestCorruptCopyFlipsOneBitWithoutMutating(t *testing.T) {
	in := New(Plan{Seed: 9, LinkCorruptProb: 1})
	s := in.LinkSite("l")
	orig := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	keep := append([]byte(nil), orig...)
	got := s.CorruptCopy(orig)
	if !bytes.Equal(orig, keep) {
		t.Fatal("CorruptCopy mutated the original")
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^orig[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want 1", diff)
	}
}

func TestEdgeSuppression(t *testing.T) {
	in := New(Plan{Seed: 11})
	s := in.EdgeSite("d/alertn", 1.0)
	if !s.SuppressEdge() {
		t.Fatal("prob 1.0 should suppress")
	}
	z := in.EdgeSite("d/rxirq", 0)
	if z.SuppressEdge() {
		t.Fatal("prob 0 should never suppress")
	}
	if s.C.Suppressed != 1 {
		t.Fatalf("suppressed count %d", s.C.Suppressed)
	}
}

func TestSummaryDeterministicOrder(t *testing.T) {
	mk := func() string {
		in := New(Plan{Seed: 2, LinkDropProb: 0.5})
		// Register in one order, exercise in another.
		b := in.LinkSite("b")
		a := in.LinkSite("a")
		for i := 0; i < 10; i++ {
			a.Frame(0)
			b.Frame(0)
		}
		return in.Summary()
	}
	if mk() != mk() {
		t.Fatal("summaries diverge across identical runs")
	}
}
