package exp

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// curveOf builds a curve from (achieved qps, p99 ns, errors) rungs.
func curveOf(topo string, rungs ...[3]float64) *ServeTopoCurve {
	c := &ServeTopoCurve{Topo: topo}
	for _, r := range rungs {
		p := ServePoint{OfferedQPS: r[0], Errors: int64(r[2])}
		p.Summary.QPS, p.Summary.P99 = r[0], r[1]
		c.Points = append(c.Points, p)
	}
	return c
}

func TestKneeQps(t *testing.T) {
	const slo = 40e3
	for _, c := range []struct {
		name  string
		curve *ServeTopoCurve
		want  float64
	}{
		{"never crosses: credited its top rung",
			curveOf("a", [3]float64{1e6, 10e3, 0}, [3]float64{2e6, 30e3, 0}), 2e6},
		{"crosses between rungs: interpolated in achieved qps",
			curveOf("b", [3]float64{1e6, 20e3, 0}, [3]float64{2e6, 60e3, 0}, [3]float64{3e6, 900e3, 0}), 1.5e6},
		{"unhealthy first rung: no knee",
			curveOf("c", [3]float64{1e6, 10e3, 3}, [3]float64{2e6, 20e3, 0}), 0},
		{"over the SLO from the first rung: no knee",
			curveOf("d", [3]float64{1e6, 50e3, 0}), 0},
	} {
		if got := kneeQps(c.curve, slo); got != c.want {
			t.Errorf("%s: knee %.0f, want %.0f", c.name, got, c.want)
		}
	}
}

func TestKneeGuards(t *testing.T) {
	sweepOf := func(curves ...*ServeTopoCurve) *ServeCurveResult {
		r := &ServeCurveResult{SLONs: 40e3}
		for _, c := range curves {
			r.Curves = append(r.Curves, *c)
		}
		return r
	}
	flat := func(topo string) *ServeTopoCurve {
		return curveOf(topo, [3]float64{2e5, 10e3, 0}, [3]float64{8e5, 15e3, 0})
	}
	// A truncated smoke ladder never reaches the TCP knee: both curves top
	// out at the same rung, so the mcnt guard must stand down, not fail.
	notes, drift := kneeGuards(sweepOf(flat("mcn5+batch"), flat("mcn5+batch+repl"), flat("mcn5+batch+mcnt")))
	if len(drift) != 0 || !strings.Contains(strings.Join(notes, "\n"), "mcnt knee guard skipped") {
		t.Fatalf("truncated ladder: notes %q drift %q", notes, drift)
	}
	// On a ladder that brackets the TCP knee (1.5M here) the guards bite: an
	// mcnt knee under 1.15x of it and a replicated knee 20% short both fail.
	tcp := curveOf("mcn5+batch", [3]float64{1e6, 20e3, 0}, [3]float64{2e6, 60e3, 0})
	_, drift = kneeGuards(sweepOf(tcp,
		curveOf("mcn5+batch+repl", [3]float64{1e6, 30e3, 0}, [3]float64{1.4e6, 80e3, 0}),
		curveOf("mcn5+batch+mcnt", [3]float64{1e6, 20e3, 0}, [3]float64{1.6e6, 30e3, 0})))
	all := strings.Join(drift, "\n")
	if !strings.Contains(all, "replicated knee") || !strings.Contains(all, "mcnt knee 1600000 not >15%") {
		t.Fatalf("guards did not bite: %q", drift)
	}
	notes, drift = kneeGuards(sweepOf(tcp,
		curveOf("mcn5+batch+mcnt", [3]float64{1e6, 20e3, 0}, [3]float64{2e6, 30e3, 0})))
	if len(drift) != 0 || !strings.Contains(strings.Join(notes, "\n"), "clears batched TCP knee") {
		t.Fatalf("healthy mcnt knee: notes %q drift %q", notes, drift)
	}
}

func TestCheckArtifactRefusals(t *testing.T) {
	for _, c := range []struct {
		name, raw, want string
	}{
		{"seed mismatch", `{"seed": 7, "curves": []}`, "artifact seed 7, run seed 42"},
		{"not JSON", `{"seed": `, "bad artifact"},
		{"neither artifact", `{"seed": 42}`, "neither curves nor points"},
	} {
		notes, drift := CheckArtifact([]byte(c.raw), 42, nil)
		if len(drift) != 1 || !strings.Contains(drift[0], c.want) || notes != nil {
			t.Errorf("%s: notes %q drift %q, want one drift line containing %q", c.name, notes, drift, c.want)
		}
	}
}

func TestDiffJSON(t *testing.T) {
	stored := `{"seed": 1, "curves": [
		{"topo": "a", "points": [{"offered_qps": 100, "qps": 99.5, "errors": 0}, {"offered_qps": 200, "qps": 180, "errors": 2}]},
		{"topo": "b", "points": [{"offered_qps": 100, "qps": 98, "errors": 0}]}]}`
	var got any
	regen := func(s string) {
		if err := json.Unmarshal([]byte(s), &got); err != nil {
			t.Fatal(err)
		}
	}
	// A partial ladder pairs by (topo, rate); the stored-only rung and
	// curve are skipped, and a float within the formatting allowance passes.
	regen(`{"seed": 1, "curves": [{"topo": "a", "points": [{"offered_qps": 200, "qps": 180.00000000001, "errors": 2}]}]}`)
	if leaves, drift := diffJSON(got, []byte(stored)); len(drift) != 0 || leaves != 5 {
		t.Fatalf("partial ladder: %d leaves, drift %q", leaves, drift)
	}
	// No rung in common is a failure, not a vacuous pass.
	regen(`{"seed": 1, "curves": [{"topo": "a", "points": [{"offered_qps": 123, "qps": 1, "errors": 0}]}]}`)
	if _, drift := diffJSON(got, []byte(stored)); len(drift) != 1 || !strings.Contains(drift[0], "curves[a].points: no overlapping") {
		t.Fatalf("disjoint ladder: drift %q", drift)
	}
	// Integers are exact; fields on one side only are named.
	regen(`{"seed": 1, "extra": true, "curves": [{"topo": "b", "points": [{"offered_qps": 100, "qps": 98, "errors": 1}]}]}`)
	_, drift := diffJSON(got, []byte(stored))
	all := strings.Join(drift, "\n")
	if len(drift) != 2 || !strings.Contains(all, "curves[b].points[100].errors: regenerated 1, artifact has 0") ||
		!strings.Contains(all, "extra: regenerated, missing from the artifact") {
		t.Fatalf("exact/missing: drift %q", drift)
	}
}

// TestCheckNamesPerturbedLeaf regenerates the committed artifacts once
// (the serving one on a one-rung ladder) and then perturbs one leaf per
// top-level section of a copy: the gate must name exactly that JSON path.
// Every field the writers emit is covered by the same walk, so a section
// going ungated shows up here as a perturbation nobody noticed.
func TestCheckNamesPerturbedLeaf(t *testing.T) {
	perturb := func(raw []byte, path ...string) []byte {
		var root any
		if err := json.Unmarshal(raw, &root); err != nil {
			t.Fatal(err)
		}
		node := root
		for _, k := range path[:len(path)-1] {
			switch n := node.(type) {
			case map[string]any:
				node = n[k]
			case []any:
				for i, e := range n {
					if elemID(i, e) == k {
						node = e
					}
				}
			}
		}
		leaf := path[len(path)-1]
		obj := node.(map[string]any)
		obj[leaf] = obj[leaf].(float64) + 1
		out, err := json.Marshal(root)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	type leaf struct {
		name string   // the JSON path the gate must report
		path []string // the same path as keys/element IDs, for perturb
	}
	for _, a := range []struct {
		file   string
		rates  []float64
		leaves []leaf
	}{
		{"../../BENCH_serve.json", []float64{200e3}, []leaf{
			{"faults.p99_reroute_ns", []string{"faults", "p99_reroute_ns"}},                          // admission A/B
			{"faults.failover_reads", []string{"faults", "failover_reads"}},                          // replication A/B
			{"ops.rows[0.1].dimm_filter_bytes", []string{"ops", "rows", "0.1", "dimm_filter_bytes"}}, // operator sweep
			{"curves[mcn5+batch+admit].points[200000].p999_ns",
				[]string{"curves", "mcn5+batch+admit", "points", "200000", "p999_ns"}},
			{"qps_at_slo.mcn5+batch", []string{"qps_at_slo", "mcn5+batch"}},
		}},
		{"../../BENCH_wallclock.json", nil, []leaf{
			{"points[mcn5+batch@800000].switches", []string{"points", "mcn5+batch@800000", "switches"}},
		}},
	} {
		raw, err := os.ReadFile(a.file)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _ := regenArtifact(raw, 42, a.rates)
		if got == nil {
			t.Fatalf("%s: refused", a.file)
		}
		if _, drift := diffJSON(got, raw); len(drift) != 0 {
			t.Fatalf("%s: committed artifact drifted: %q", a.file, drift)
		}
		for _, l := range a.leaves {
			_, drift := diffJSON(got, perturb(raw, l.path...))
			if len(drift) != 1 || !strings.HasPrefix(drift[0], l.name+": ") {
				t.Errorf("%s: perturbed %s, gate reported %q", a.file, l.name, drift)
			}
		}
	}
}
