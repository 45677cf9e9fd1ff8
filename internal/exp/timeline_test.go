package exp

import (
	"strings"
	"testing"
)

// TestServeTracedTimelineConsistency: the timeline the traced run always
// carries must agree with the run it watched — whole-run window sums
// bound the measured-window telemetry, the queue-depth high-water mark
// is live, and the tracer fed per-window phase means into the windows
// where spans finished.
func TestServeTracedTimelineConsistency(t *testing.T) {
	r := ServeTraced(42, mustTopo("mcn5+batch"), 200e3, 0, 8)
	tl := r.Timeline
	var issued, completed, shed, queueMax, phased int64
	for _, w := range tl.Windows() {
		issued += w.Issued
		completed += w.Completed
		shed += w.Shed
		queueMax = max(queueMax, w.QueueMax)
		if w.Lat.N() > 0 {
			phased++
		}
	}
	if completed < r.Result.N {
		t.Fatalf("timeline completed %d < measured-window N %d", completed, r.Result.N)
	}
	if issued < completed {
		t.Fatalf("issued %d < completed %d", issued, completed)
	}
	if shed != 0 {
		t.Fatalf("shed %d without an admission plane", shed)
	}
	if queueMax == 0 {
		t.Fatal("queue high-water never moved")
	}
	if phased == 0 {
		t.Fatal("no window carries completion latencies")
	}
	if n := len(tl.Windows()); n < 6 {
		t.Fatalf("only %d windows for a >6ms run", n)
	}

	// The JSON artifact renders and the healthy run raises no incidents.
	js := tl.JSON()
	if len(js.Windows) != len(tl.Windows()) {
		t.Fatalf("JSON windows %d != %d", len(js.Windows), len(tl.Windows()))
	}
	if len(tl.Incidents()) != 0 {
		t.Fatalf("healthy run raised incidents: %+v", tl.Incidents())
	}
}

// TestServeTimeline: the A/B experiment's unprotected arm attributes the
// flap; the protected arms run the same fault with the monitor quiet or
// strictly less burned, and the replication arm's backlog gauge is live.
func TestServeTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("timeline A/B skipped in -short mode")
	}
	r := ServeTimeline(42)
	if len(r.Variants) != 3 {
		t.Fatalf("variants: %d", len(r.Variants))
	}
	off, repl := r.Variants[0], r.Variants[2]
	if off.DetectNs < 0 {
		t.Fatal("unprotected arm never detected the flap")
	}
	if len(off.Timeline.Incidents()) == 0 ||
		off.Timeline.Incidents()[0].Cause != r.FlapDimm+" offline" {
		t.Fatalf("attribution: %+v", off.Timeline.Incidents())
	}
	for _, v := range r.Variants[1:] {
		if n := len(v.Timeline.Alerts()); n > len(off.Timeline.Alerts()) {
			t.Fatalf("protected arm %s alerted more than unprotected: %d", v.Name, n)
		}
	}
	found := false
	for _, n := range repl.Timeline.SeriesNames() {
		if n == "repl/backlog" {
			found = true
		}
	}
	if !found {
		t.Fatalf("replication arm recorded no backlog gauge: %v", repl.Timeline.SeriesNames())
	}
	out := r.String()
	for _, want := range []string{"admit=off", "admit=repl", "variant", "detect"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
