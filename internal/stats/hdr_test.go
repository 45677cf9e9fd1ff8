package stats

import (
	"math"
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

// splitmix64 for reproducible test streams (no math/rand global state).
type testRng struct{ state uint64 }

func (r *testRng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestHDRQuantileUniform(t *testing.T) {
	var h HDR
	const n = 200000
	r := testRng{state: 1}
	for i := 0; i < n; i++ {
		h.Record(int64(r.next() % 1000000))
	}
	if h.N() != n {
		t.Fatalf("n=%d", h.N())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500000}, {0.90, 900000}, {0.99, 990000}, {0.999, 999000},
	} {
		got := h.Quantile(tc.q)
		// Bucket resolution is 1/64 (~1.6%); allow sampling noise on top.
		if relErr(got, tc.want) > 0.03 {
			t.Errorf("p%g = %.0f, want ~%.0f", tc.q*100, got, tc.want)
		}
	}
	if relErr(h.Mean(), 500000) > 0.02 {
		t.Errorf("mean = %.0f, want ~500000", h.Mean())
	}
}

func TestHDRQuantileExponential(t *testing.T) {
	var h HDR
	const n = 200000
	const mean = 50000.0
	r := testRng{state: 7}
	for i := 0; i < n; i++ {
		u := r.float64()
		h.Record(int64(-mean * math.Log(1-u)))
	}
	// Exponential quantiles: -mean * ln(1-q).
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := -mean * math.Log(1-q)
		if got := h.Quantile(q); relErr(got, want) > 0.05 {
			t.Errorf("p%g = %.0f, want ~%.0f", q*100, got, want)
		}
	}
}

func TestHDRExactSmallValues(t *testing.T) {
	// Values below 2^hdrSubBits have unit-resolution buckets: quantiles are
	// exact.
	var h HDR
	for v := int64(1); v <= 10; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := h.Quantile(1.0); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	if h.min != 1 || h.Max() != 10 {
		t.Errorf("min/max = %d/%d", h.min, h.Max())
	}
}

func TestHDREmpty(t *testing.T) {
	var h HDR
	if h.N() != 0 || h.Mean() != 0 || h.min != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty quantile(%g) = %g", q, got)
		}
	}
}

func TestHDRSingleSample(t *testing.T) {
	var h HDR
	h.Record(777)
	if h.N() != 1 || h.min != 777 || h.Max() != 777 || h.Mean() != 777 {
		t.Fatalf("single sample: n=%d min=%d max=%d mean=%g", h.N(), h.min, h.Max(), h.Mean())
	}
	// Every quantile of a one-sample histogram is that sample, exactly:
	// the bucket midpoint clamps to [min, max] and min == max. Out-of-range
	// q must clamp, not panic or extrapolate.
	for _, q := range []float64{-1, 0, 0.001, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 777 {
			t.Errorf("single-sample quantile(%g) = %g, want 777", q, got)
		}
	}
}

func TestHDRRecordDuration(t *testing.T) {
	var h HDR
	h.RecordDuration(1500 * sim.Nanosecond)
	h.RecordDuration(2 * sim.Microsecond)
	if h.N() != 2 || h.min != 1500 || h.Max() != 2000 {
		t.Fatalf("n=%d min=%d max=%d", h.N(), h.min, h.Max())
	}
	// Negative and zero clamp to 0.
	h.Record(-5)
	if h.min != 0 {
		t.Fatalf("negative record should clamp to 0, min=%d", h.min)
	}
}
