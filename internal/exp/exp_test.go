package exp

import (
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/core"
)

func TestFig8aShape(t *testing.T) {
	r := Fig8a()
	if len(r.Rows) != 6 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	// Paper shape: every MCN level beats 10GbE in host-mcn; mcn3's jumbo
	// MTU gives a large jump; host-mcn >= mcn-mcn at high levels; the
	// best level is the best overall.
	for _, row := range r.Rows {
		if row.HostMcn <= 1.0 {
			t.Errorf("%v host-mcn %.2f should beat 10GbE", row.Level, row.HostMcn)
		}
		if row.McnMcn <= 0.5 {
			t.Errorf("%v mcn-mcn %.2f implausibly low", row.Level, row.McnMcn)
		}
	}
	get := func(l core.OptLevel) Fig8aRow { return r.Rows[int(l)] }
	if !(get(core.MCN3).HostMcn > get(core.MCN2).HostMcn*1.2) {
		t.Errorf("9KB MTU should give a big jump: mcn2=%.2f mcn3=%.2f",
			get(core.MCN2).HostMcn, get(core.MCN3).HostMcn)
	}
	if !(get(core.MCN5).HostMcn >= get(core.MCN0).HostMcn) {
		t.Errorf("mcn5 (%.2f) should be >= mcn0 (%.2f)", get(core.MCN5).HostMcn, get(core.MCN0).HostMcn)
	}
	for _, l := range []core.OptLevel{core.MCN3, core.MCN4, core.MCN5} {
		if !(get(l).McnMcn < get(l).HostMcn) {
			t.Errorf("%v: mcn-mcn (%.2f) should trail host-mcn (%.2f): relays cost the host twice",
				l, get(l).McnMcn, get(l).HostMcn)
		}
	}
	t.Log("\n" + r.String())
}

func TestFig8bShape(t *testing.T) {
	f := Fig8b()
	// Paper: mcn0 cuts RTT by 62-75% across sizes vs same-size 10GbE;
	// here we require every MCN level to beat 10GbE at every size, and
	// the 16B mcn0 RTT to be under half the 10GbE 16B RTT.
	for _, l := range core.Levels() {
		for _, s := range PingSizes {
			if f.Rows[l][s] >= f.BaseRTT[s] {
				t.Errorf("%v %dB: MCN rtt %v >= 10GbE %v", l, s, f.Rows[l][s], f.BaseRTT[s])
			}
		}
	}
	if cut := 1 - float64(f.Rows[core.MCN0][16])/float64(f.Base16B); cut < 0.4 {
		t.Errorf("mcn0 16B latency cut %.2f, want >40%%", cut)
	}
	// ALERT_N (mcn1) removes the polling wait: it must improve on mcn0.
	if !(f.Rows[core.MCN1][16] < f.Rows[core.MCN0][16]) {
		t.Errorf("mcn1 (%v) should beat mcn0 (%v) at 16B", f.Rows[core.MCN1][16], f.Rows[core.MCN0][16])
	}
	t.Log("\n" + f.String())
}

func TestFig8cShape(t *testing.T) {
	f := Fig8c()
	b := Fig8b()
	// mcn-mcn goes through the host twice: slower than host-mcn at the
	// same level, but the optimized levels still beat 10GbE (paper:
	// mcn5 cuts 52-79%).
	for _, s := range PingSizes {
		if !(f.Rows[core.MCN5][s] < f.BaseRTT[s]) {
			t.Errorf("mcn5 mcn-mcn %dB (%v) should beat 10GbE (%v)", s, f.Rows[core.MCN5][s], f.BaseRTT[s])
		}
		if !(f.Rows[core.MCN0][s] > b.Rows[core.MCN0][s]) {
			t.Errorf("mcn-mcn %dB (%v) should exceed host-mcn (%v)", s, f.Rows[core.MCN0][s], b.Rows[core.MCN0][s])
		}
	}
	t.Log("\n" + f.String())
}

func TestTable3Shape(t *testing.T) {
	r := Table3()
	if len(r.Rows) != 4 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for i := 0; i < len(r.Rows); i += 2 {
		eth, mcn := r.Rows[i], r.Rows[i+1]
		// PHY dominates the 10GbE latency; MCN removes DMA and PHY
		// entirely and its total is below the 10GbE total (paper: 0.320
		// at 1.5KB, 0.765 at 9KB).
		if eth.PHY < 0.2 {
			t.Errorf("10GbE %dB: PHY share %.3f too small", eth.SizeBytes, eth.PHY)
		}
		if mcn.DMATX != 0 || mcn.PHY != 0 || mcn.DMARX != 0 {
			t.Errorf("MCN rows must have no DMA/PHY stages: %+v", mcn)
		}
		if mcn.Total >= 1 {
			t.Errorf("MCN %dB total %.3f should be below the 10GbE total", mcn.SizeBytes, mcn.Total)
		}
		// MCN driver stages are software copies: relatively more
		// expensive than the 10GbE driver stages (paper: 0.075 vs 0.017).
		if mcn.DriverTX <= eth.DriverTX {
			t.Errorf("MCN Driver-TX (%.3f) should exceed 10GbE's (%.3f)", mcn.DriverTX, eth.DriverTX)
		}
	}
	t.Log("\n" + r.String())
}

func TestFig9Shape(t *testing.T) {
	// Two representative memory-bound workloads at quick scale.
	r := Fig9([]string{"mg", "grep"}, 0.3)
	for _, w := range r.Workloads {
		row := r.Norm[w]
		if row[len(row)-1] <= 1.2 {
			t.Errorf("%s: 8 DIMMs should scale aggregate bandwidth, got %.2fx", w, row[len(row)-1])
		}
		// Monotone non-decreasing within noise (allow 10% dips).
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1]*0.9 {
				t.Errorf("%s: bandwidth fell from %.2f to %.2f at %d DIMMs", w, row[i-1], row[i], Fig9DimmCounts[i])
			}
		}
	}
	if r.Avg[len(r.Avg)-1] <= r.Avg[0] {
		t.Errorf("average should grow with DIMMs: %v", r.Avg)
	}
	t.Log("\n" + r.String())
}

func TestFig10Shape(t *testing.T) {
	r := Fig10([]string{"mg", "grep"}, QuickScale)
	// Paper: savings grow with scale and are positive from 2 DIMMs on.
	for i, s := range r.AvgSaving {
		if s <= 0 {
			t.Errorf("point %d: MCN should save energy, got %.1f%%", i, s*100)
		}
	}
	first, last := r.AvgSaving[0], r.AvgSaving[len(r.AvgSaving)-1]
	if last <= first {
		t.Errorf("savings should grow with scale: %.1f%% -> %.1f%%", first*100, last*100)
	}
	t.Log("\n" + r.String())
}

func TestFig11Shape(t *testing.T) {
	r := Fig11([]string{"mg", "ep", "cg"}, 0.3)
	// mg (memory bound): MCN must beat scale-up at every step.
	for i := 1; i < len(Fig11Steps); i++ {
		if !(r.Mcn["mg"][i] < r.ScaleUp["mg"][i]) {
			t.Errorf("mg step %d: MCN %.2f should beat scale-up %.2f", i, r.Mcn["mg"][i], r.ScaleUp["mg"][i])
		}
	}
	// ep (compute bound): MCN provides no real speedup over scale-up.
	if r.Mcn["ep"][3] < r.ScaleUp["ep"][3]*0.9 {
		t.Errorf("ep: MCN (%.2f) should not meaningfully beat scale-up (%.2f)", r.Mcn["ep"][3], r.ScaleUp["ep"][3])
	}
	// cg (communication heavy): the paper's crossover — scale-up wins at
	// step 1 (8 cores vs 1 DIMM).
	if !(r.ScaleUp["cg"][1] < r.Mcn["cg"][1]) {
		t.Errorf("cg step 1: scale-up (%.2f) should beat 1-DIMM MCN (%.2f)", r.ScaleUp["cg"][1], r.Mcn["cg"][1])
	}
	t.Log("\n" + r.String())
}

func TestHeadline(t *testing.T) {
	h := Headline([]string{"mg"}, QuickScale)
	if h.BandwidthGain <= 0 {
		t.Errorf("bandwidth gain %.2f should be positive", h.BandwidthGain)
	}
	if h.LatencyCut <= 0.3 {
		t.Errorf("latency cut %.2f should exceed 30%%", h.LatencyCut)
	}
	if h.Throughput <= 1 {
		t.Errorf("throughput ratio %.2f should exceed 1", h.Throughput)
	}
	if h.PeakAggBW <= 1.5 {
		t.Errorf("peak aggregate bandwidth %.2fx too low", h.PeakAggBW)
	}
	s := h.String()
	if !strings.Contains(s, "Headline") {
		t.Fatal("formatting broken")
	}
	t.Log("\n" + s)
}

func TestDiscussionShape(t *testing.T) {
	d := Discussion()
	if d.FastSpeedup <= 1 {
		t.Errorf("mcnt (%.2f Gbps) should beat TCP (%.2f Gbps) on the memory channel",
			d.FastGoodputBps*8/1e9, d.TCPGoodputBps*8/1e9)
	}
	// The paper attributes up to ~25% overhead to the ACK machinery; our
	// pure-ACK share should land in the same region (10-40%).
	if d.AckShare < 0.1 || d.AckShare > 0.45 {
		t.Errorf("ACK share %.1f%% outside the plausible band", d.AckShare*100)
	}
	if d.LatencyCut <= 0 {
		t.Errorf("mcnt RTT %v should beat TCP RTT %v", d.FastSmallRTT, d.TCPSmallRTT)
	}
	t.Log("\n" + d.String())
}
