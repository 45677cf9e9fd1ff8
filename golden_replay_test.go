package mcn_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	mcn "github.com/mcn-arch/mcn"
)

// updateGolden regenerates testdata/golden_replay.json from the current
// tree: go test -run TestGoldenReplayDigests -update .
var updateGolden = flag.Bool("update", false, "rewrite the golden replay digests from this run")

const (
	goldenReplayPath = "testdata/golden_replay.json"
	goldenReplaySeed = 42
	goldenReplayRate = 200e3
)

// goldenReplayRuns maps each canonical run to the digest of its full
// telemetry/event stream. The digests were captured before the sim-kernel
// fast-path rewrite (pooled events, timer wheel, frame pools) and pin the
// scheduler's observable behaviour: any reordering of equal-time events, a
// changed stale-wake decision, or a perturbed frame byte shifts a quantile
// or a span stamp somewhere and flips the hash.
// A "+faults" suffix runs the topology before it under the standard
// DIMM-flap plan: admit reroutes around the flapped shard and repl fails
// over to its backup, so those entries pin the serve tier's error paths.
var goldenReplayRuns = []string{
	"mcn5", "mcn5+batch", "mcn5+batch+mcnt", "mcn5+batch+faults",
	"mcn5+batch+repl+ops", "mcn5+batch+admit+faults", "mcn5+batch+repl+ops+faults",
}

// goldenReplayDigest runs one canonical configuration and hashes every
// deterministic artifact the run can emit: the rendered telemetry (every
// latency quantile and per-shard line), the sorted metrics-registry
// snapshot, the Perfetto span stream of every request (sampling 1-in-1,
// so each request contributes its per-phase boundary stamps), the
// windowed timeline with its burn-rate alerts and incident report at
// production settings, and — on mcnt runs — the fabric's frame/credit
// accounting summary.
func goldenReplayDigest(t *testing.T, name string) string {
	t.Helper()
	spec, faulted := strings.CutSuffix(name, "+faults")
	topo, err := mcn.ParseTopo(spec)
	if err != nil {
		t.Fatal(err)
	}
	var run *mcn.ServeTraceResult
	if faulted {
		run = mcn.ServeTracedFaults(goldenReplaySeed, topo, goldenReplayRate, 1)
	} else {
		run = mcn.ServeTraced(goldenReplaySeed, topo, goldenReplayRate, 0, 1)
	}
	h := sha256.New()
	section := func(tag string, write func(io.Writer) error) {
		fmt.Fprintf(h, "-- %s --\n", tag)
		if err := write(h); err != nil {
			t.Fatalf("%s: serializing %s: %v", name, tag, err)
		}
	}
	section("result", func(w io.Writer) error {
		_, err := io.WriteString(w, run.Result.String())
		return err
	})
	section("metrics", run.Snapshot.WriteJSON)
	section("spans", run.Tracer.WritePerfetto)
	section("timeline", func(w io.Writer) error {
		if err := run.Timeline.WriteJSON(w); err != nil {
			return err
		}
		_, err := io.WriteString(w, run.Timeline.Report())
		return err
	})
	if run.McntFabric != "" {
		section("fabric", func(w io.Writer) error {
			_, err := io.WriteString(w, run.McntFabric)
			return err
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenReplayDigests is the byte-identical replay gate behind the
// sim-kernel rewrite: for each canonical serving topology (mcn5,
// mcn5+batch, mcn5+batch+mcnt, mcn5+batch+repl+ops) and the DIMM-flap
// faults runs (plain, admit reroute, repl failover), the full
// telemetry/event stream must hash to the digest captured with the
// pre-rewrite scheduler. It extends the TestFaultReplayDeterminism family
// from "two runs agree with each other" to "every run agrees with the
// committed history".
func TestGoldenReplayDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay runs skipped in -short mode")
	}
	raw, err := os.ReadFile(goldenReplayPath)
	if err != nil && !*updateGolden {
		t.Fatalf("reading golden digests (run with -update to create them): %v", err)
	}
	want := map[string]string{}
	if err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("bad golden digest file %s: %v", goldenReplayPath, err)
		}
	}

	got := map[string]string{}
	for _, name := range goldenReplayRuns {
		got[name] = goldenReplayDigest(t, name)
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReplayPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenReplayPath)
		return
	}

	names := make([]string, 0, len(goldenReplayRuns))
	names = append(names, goldenReplayRuns...)
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no committed digest (regenerate with -update)", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: replay diverged from the committed golden digest\n  got  %s\n  want %s",
				name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("committed digest %q has no matching run (stale %s?)", name, goldenReplayPath)
		}
	}
}
