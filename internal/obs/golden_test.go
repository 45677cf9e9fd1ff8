package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/mcn-arch/mcn/internal/exp"
	"github.com/mcn-arch/mcn/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// TestPerfettoGolden pins the trace artifact of a small traced serving
// run to a committed golden file: same seed, same bytes — across runs
// and across builds. A legitimate change to the exporter or the
// simulation regenerates it with `go test ./internal/obs -run Golden
// -update`.
func TestPerfettoGolden(t *testing.T) {
	r := exp.ServeTraced(1, exp.Topo{Fabric: "mcn5"}, 100e3, 0, 50)
	var buf bytes.Buffer
	if err := r.Tracer.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if len(r.Tracer.Spans()) == 0 {
		t.Fatal("golden run traced no spans")
	}

	// Schema sanity on the artifact itself: valid JSON, and every event
	// carries the trace-event envelope Perfetto requires.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph != "M" && ph != "X" {
			t.Fatalf("bad ph: %v", e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("missing pid: %v", e)
		}
		if _, ok := e["tid"].(float64); !ok {
			t.Fatalf("missing tid: %v", e)
		}
		if ph == "X" {
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("missing ts: %v", e)
			}
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("missing dur: %v", e)
			}
		}
	}

	checkGolden(t, "golden_trace.json", buf.Bytes())
}

// checkGolden compares got against a committed testdata file, rewriting
// it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from golden file (len %d vs %d); regenerate with -update if intended",
			name, len(got), len(want))
	}
}

// TestMetricsGolden pins the stable-JSON metrics snapshot the same way:
// the `mcn-serve -metrics` artifact of the small traced run is
// byte-identical across runs and builds.
func TestMetricsGolden(t *testing.T) {
	r := exp.ServeTraced(1, exp.Topo{Fabric: "mcn5"}, 100e3, 0, 50)
	var buf bytes.Buffer
	if err := r.Snapshot.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		AtPs    int64            `json:"at_ps"`
		Metrics []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("snapshot carries no metrics")
	}
	checkGolden(t, "golden_metrics.json", buf.Bytes())
}

// TestCombinedTraceGolden pins the combined Perfetto artifact — spans
// plus the registry's counter tracks plus the timeline's per-window
// tracks — and, alongside it, the raw timeline JSON. Together with
// TestPerfettoGolden (which renders the same run spans-only) this also
// proves attaching the extra sources never perturbs the span bytes.
func TestCombinedTraceGolden(t *testing.T) {
	r := exp.ServeTraced(1, exp.Topo{Fabric: "mcn5"}, 100e3, 0, 50)
	var buf bytes.Buffer
	ct := obs.PerfettoTrace{Tracer: r.Tracer, Snapshot: r.Snapshot, Timeline: r.Timeline}
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}

	// Schema sanity: counter events join the span/metadata envelope.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("combined trace JSON invalid: %v", err)
	}
	counters := 0
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M", "X":
		case "C":
			counters++
			args, ok := e["args"].(map[string]any)
			if !ok {
				t.Fatalf("counter without args: %v", e)
			}
			if _, ok := args["value"].(float64); !ok {
				t.Fatalf("counter without value: %v", e)
			}
		default:
			t.Fatalf("bad ph: %v", e)
		}
	}
	if counters == 0 {
		t.Fatal("combined trace carries no counter tracks")
	}
	checkGolden(t, "golden_combined.json", buf.Bytes())

	var tlb bytes.Buffer
	if err := r.Timeline.WriteJSON(&tlb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_timeline.json", tlb.Bytes())
}
