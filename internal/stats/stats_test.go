package stats

import (
	"testing"
	"testing/quick"

	"github.com/mcn-arch/mcn/internal/sim"
)

func TestCounterRate(t *testing.T) {
	var c Counter
	c.Add(0, 500)
	c.Add(sim.Time(sim.Second), 500)
	if r := c.Rate(); r != 1000 {
		t.Fatalf("rate=%v, want 1000/s", r)
	}
	if c.Total != 1000 || c.N != 2 {
		t.Fatalf("total=%d n=%d", c.Total, c.N)
	}
	if c.First() != 0 || c.Last() != sim.Time(sim.Second) {
		t.Fatalf("bounds %v %v", c.First(), c.Last())
	}
}

func TestCounterSingleEventHasNoRate(t *testing.T) {
	var c Counter
	c.Add(5, 100)
	if c.Rate() != 0 {
		t.Fatal("a single sample has no measurable rate")
	}
	if c.RateOver(sim.Second) != 100 {
		t.Fatal("RateOver should use the provided span")
	}
}

func TestHistogramOrderStatistics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.N() != 100 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("n=%d min=%v max=%v", h.N(), h.Min(), h.Max())
	}
	if m := h.Median(); m != 50 {
		t.Fatalf("median=%v", m)
	}
	if q := h.Quantile(0.99); q != 99 {
		t.Fatalf("p99=%v", q)
	}
	if mean := h.Mean(); mean != 50.5 {
		t.Fatalf("mean=%v", mean)
	}
}

func TestHistogramQuantileProperty(t *testing.T) {
	// Property: quantiles are monotone and bounded by min/max.
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		last := h.Min()
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return h.Quantile(1) == h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBusyMeterEnergy(t *testing.T) {
	var b BusyMeter
	b.AddBusy(sim.Second)
	// 4 units over 2s: 1s busy at 10W + 7 unit-seconds idle at 1W.
	e := b.Energy(2*sim.Second, 4, 10, 1)
	if e != 17 {
		t.Fatalf("energy=%v, want 17J", e)
	}
	// Busy beyond span*units clamps idle at zero.
	var b2 BusyMeter
	b2.AddBusy(3 * sim.Second)
	if e := b2.Energy(sim.Second, 1, 5, 1); e != 15 {
		t.Fatalf("over-busy energy=%v, want 15", e)
	}
}

func TestOpsCounters(t *testing.T) {
	var o OpsCounters
	o.Filter.Add(OpTally{Issued: 2, Offloaded: 1, Host: 1, WireReqs: 3, ReqBytes: 100, RespBytes: 900})
	o.RMW.Add(OpTally{Issued: 5, Offloaded: 5, WireReqs: 5, ReqBytes: 50, RespBytes: 40})
	if o.Total() != 7 || o.Bytes() != 1090 {
		t.Fatalf("total=%d bytes=%d", o.Total(), o.Bytes())
	}
	if o.Filter.Bytes() != 1000 {
		t.Fatalf("filter bytes = %d", o.Filter.Bytes())
	}
	want := "multiget(n=0 dimm=0 host=0 err=0 wire=0 reqB=0 respB=0) scan(n=0 dimm=0 host=0 err=0 wire=0 reqB=0 respB=0) filter(n=2 dimm=1 host=1 err=0 wire=3 reqB=100 respB=900) rmw(n=5 dimm=5 host=0 err=0 wire=5 reqB=50 respB=40)"
	if o.String() != want {
		t.Fatalf("String() = %q", o.String())
	}
}
