package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestManifestMatches keeps the committed BENCHMARK.json equal to what the
// program's own metric tables render.
func TestManifestMatches(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := manifest(&got, scenarios()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}
}

// TestSmoke runs every workload at tiny scale, both passes, and checks
// that every metric BENCHMARK.json names is printed exactly once, with
// its unit, under a well-formed name.
func TestSmoke(t *testing.T) {
	// One P, as main pins it; the traced pass adds the two-P repetitions.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	scs := scenarios()
	if len(scs) != len(m.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(scs), len(m.Workloads))
	}
	for i, sc := range scs {
		if sc.name != m.Workloads[i].Name {
			t.Fatalf("workload %d is %q, BENCHMARK.json says %q", i, sc.name, m.Workloads[i].Name)
		}
		var out bytes.Buffer
		e := &env{seed: 42, trace: true, tiny: true, rec: newRecorder("test"), out: &out}
		o := runWorkload(e, sc)
		for _, pass := range []struct {
			trace bool
			defs  []def
		}{{false, m.EndToEnd}, {true, m.PerLayer}} {
			out.Reset()
			e.trace = pass.trace
			if !emit(e, sc, o) {
				t.Errorf("%s (trace %v) is incorrect:\n%s", sc.name, pass.trace, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", sc.name, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", sc.name, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(pass.defs) {
				t.Errorf("%s (trace %v): %d metrics printed, BENCHMARK.json names %d", sc.name, pass.trace, len(res.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				if !name.MatchString(d.Name) {
					t.Errorf("metric name %q is malformed", d.Name)
				}
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit || got.Unit == "" {
					t.Errorf("%s: metric %s: printed %+v (present %v), want unit %q", sc.name, d.Name, got, ok, d.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s is %v", sc.name, d.Name, got.Value)
				}
				n := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 && f[0] == d.Name {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s (trace %v): metric %s is in the table %d times", sc.name, pass.trace, d.Name, n)
				}
			}
		}
		if len(e.rec.spans) < 10 {
			t.Errorf("%s: only %d spans recorded", sc.name, len(e.rec.spans))
		}
	}
}

// TestFindKnee checks the bracketing rule on synthetic curves: p99 rises
// linearly from 10us at rate 0 to the 40us SLO at the given knee.
func TestFindKnee(t *testing.T) {
	const slo = 40e3
	curve := func(knee float64) func(float64) rung {
		return func(rate float64) rung {
			p99 := 10e3 + 30e3*rate/knee
			return rung{offered: rate, qps: rate, p99: p99, pass: p99 <= slo}
		}
	}
	ladder := []float64{1e6, 2e6, 3e6}
	for _, tc := range []struct {
		knee float64
		ok   bool
	}{
		{2.5e6, true},   // inside the ladder
		{3.5e6, true},   // top rung passes: extended upward
		{0.3e6, true},   // bottom rung fails: extended downward
		{20e6, false},   // beyond four x1.25 extensions
		{0.05e6, false}, // below three halvings
	} {
		got, a, b, ok := findKnee(ladder, slo, curve(tc.knee))
		if ok != tc.ok {
			t.Errorf("knee %.0f: bracketed = %v, want %v", tc.knee, ok, tc.ok)
			continue
		}
		if ok && (math.Abs(got-tc.knee) > 1 || !a.pass || b.pass || a.qps > tc.knee || b.qps < tc.knee) {
			t.Errorf("knee %.0f: got %.0f between %+v and %+v", tc.knee, got, a, b)
		}
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

// TestCPUShares decodes a real profile of this process spinning.
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		calibrate()
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range cpuShareBuckets {
		sum += shares[b]
	}
	if len(shares) != len(cpuShareBuckets) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
	// calibrate is this package's, so the spin lands in "other".
	if shares["other"] < 0.5 {
		t.Errorf("spin loop got share %v of %v", shares["other"], shares)
	}
}
