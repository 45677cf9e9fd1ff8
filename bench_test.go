// Benchmarks: one per table/figure of the paper (regenerating the result
// each iteration). Run with:
//
//	go test -bench=. -benchmem
//
// Each bench reports the headline simulated metric of its figure via
// b.ReportMetric, so a bench run doubles as a summary of the
// reproduction. How fast the simulator itself runs on the host is
// measured in one place, `bash benchmark/run.sh` (run_wall_s,
// sim.events_per_wall_s and the per-layer probes).
package mcn_test

import (
	"testing"

	"github.com/mcn-arch/mcn"
)

// BenchmarkFig8a regenerates Fig. 8(a): iperf bandwidth, mcn0..mcn5,
// host-mcn and mcn-mcn, normalized to 10GbE.
func BenchmarkFig8a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mcn.Fig8a()
		b.ReportMetric(r.Rows[mcn.MCN5].HostMcn, "mcn5-host-mcn-x")
		b.ReportMetric(r.Rows[mcn.MCN0].HostMcn, "mcn0-host-mcn-x")
	}
}

// BenchmarkFig8b regenerates Fig. 8(b): host-MCN ping RTT across payload
// sizes.
func BenchmarkFig8b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := mcn.Fig8b()
		cut := 1 - float64(f.Rows[mcn.MCN0][16])/float64(f.Base16B)
		b.ReportMetric(cut*100, "mcn0-16B-latency-cut-%")
	}
}

// BenchmarkFig8c regenerates Fig. 8(c): MCN-MCN ping RTT.
func BenchmarkFig8c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := mcn.Fig8c()
		cut := 1 - float64(f.Rows[mcn.MCN5][16])/float64(f.Base16B)
		b.ReportMetric(cut*100, "mcn5-16B-latency-cut-%")
	}
}

// BenchmarkTable3 regenerates Table III: the single-packet latency
// breakdown.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mcn.Table3()
		b.ReportMetric(r.Rows[1].Total, "mcn0-1.5KB-total-vs-10GbE")
		b.ReportMetric(r.Rows[3].Total, "mcn0-9KB-total-vs-10GbE")
	}
}

// benchWorkloads is the subset used by the workload-driven figure benches
// (the full suite is available through cmd/mcn-experiments).
var benchWorkloads = []string{"mg", "grep"}

// BenchmarkFig9 regenerates Fig. 9: aggregate memory bandwidth scaling.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mcn.Fig9(benchWorkloads, mcn.QuickScale)
		b.ReportMetric(r.Avg[len(r.Avg)-1], "avg-8dimm-bandwidth-x")
		b.ReportMetric(r.Max, "max-bandwidth-x")
	}
}

// BenchmarkFig10 regenerates Fig. 10: energy vs equal-core scale-out.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mcn.Fig10(benchWorkloads, mcn.QuickScale)
		b.ReportMetric(r.AvgSaving[len(r.AvgSaving)-1]*100, "avg-8dimm-energy-saving-%")
	}
}

// BenchmarkFig11 regenerates Fig. 11: NPB execution time, scale-up vs MCN.
// It runs at the documented scale (0.3) — the crossover structure needs a
// working set large enough for the memory wall to matter.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mcn.Fig11([]string{"mg", "ep"}, 0.3)
		b.ReportMetric((1-r.Mcn["mg"][3]/r.ScaleUp["mg"][3])*100, "mg-step3-improvement-%")
	}
}

// BenchmarkHeadline regenerates the abstract's summary numbers.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := mcn.Headline([]string{"mg"}, mcn.QuickScale)
		b.ReportMetric(h.Throughput, "throughput-x")
		b.ReportMetric(h.EnergyCut*100, "energy-saving-%")
	}
}
