// Command mcn-serve runs the kvstore serving benchmark: Zipfian load
// generators drive a sharded key/value tier over one of the serving
// topologies and report warmup-trimmed tail latencies.
//
// Usage:
//
//	mcn-serve -topo mcn5 -rate 400000            # one run, human-readable
//	mcn-serve -topo 10gbe -rate 400000 -json     # one run, JSON
//	mcn-serve -trace trace.json -metrics m.json  # one traced run + artifacts
//	mcn-serve -timeline tl.json                  # windowed timeline + incidents
//	mcn-serve -curve                             # full latency-vs-load sweep
//	mcn-serve -bench -out BENCH_serve.json       # qps-at-SLO per topology
//	mcn-serve -wallbench -out BENCH_wallclock.json  # simulator event budget
//	mcn-serve -check BENCH_serve.json            # regenerate + drift gate
//	mcn-serve -check BENCH_wallclock.json        # same gate, other artifact
//
// -check regenerates every section the named artifact records and names
// each JSON path that drifted; -rates trims the serving sweep to a
// partial ladder for a quick gate.
//
// -trace writes a Perfetto/Chrome trace-event JSON (load it at
// ui.perfetto.dev) of the sampled request spans plus metrics/timeline
// counter tracks; -metrics writes the unified metrics-registry
// snapshot; -timeline writes the windowed time-series (per-1ms window
// qps, tails, queue depths, subsystem series) with the SLO burn-rate
// alerts and attributed incidents. Observation never perturbs the
// simulation, so an observed run's telemetry matches the plain run's.
//
// Every run is seeded; the same -seed replays bit-identically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/mcn-arch/mcn"
)

// runJSON is the single-run JSON shape.
type runJSON struct {
	Seed       uint64           `json:"seed"`
	Topo       string           `json:"topo"`
	OfferedQPS float64          `json:"offered_qps,omitempty"`
	Workers    int              `json:"closed_workers,omitempty"`
	QPS        float64          `json:"qps"`
	N          int64            `json:"n"`
	Errors     int64            `json:"errors"`
	Unfinished int64            `json:"unfinished"`
	P50Ns      float64          `json:"p50_ns"`
	P95Ns      float64          `json:"p95_ns"`
	P99Ns      float64          `json:"p99_ns"`
	P999Ns     float64          `json:"p999_ns"`
	MaxNs      float64          `json:"max_ns"`
	Shed       int64            `json:"shed,omitempty"`
	Rerouted   int64            `json:"rerouted,omitempty"`
	Misses     int64            `json:"misses,omitempty"`
	FailedOver int64            `json:"failed_over,omitempty"`
	StaleReads int64            `json:"stale_reads,omitempty"`
	Degraded   []int            `json:"degraded,omitempty"`
	Ops        *mcn.OpsCounters `json:"ops,omitempty"`
	Shards     []runShardJSON   `json:"shards"`
}

type runShardJSON struct {
	Shard      int     `json:"shard"`
	Name       string  `json:"name"`
	N          int64   `json:"n"`
	Errors     int64   `json:"errors"`
	Unfinished int64   `json:"unfinished"`
	Shed       int64   `json:"shed,omitempty"`
	Rerouted   int64   `json:"rerouted,omitempty"`
	Misses     int64   `json:"misses,omitempty"`
	FailedOver int64   `json:"failed_over,omitempty"`
	P99Ns      float64 `json:"p99_ns"`
	MaxNs      int64   `json:"max_ns"`
}

func main() {
	seed := flag.Uint64("seed", 42, "random seed; the same seed replays bit-identically")
	topoFlag := flag.String("topo", "mcn5", "serving topology, "+mcn.TopoGrammar())
	rate := flag.Float64("rate", 400e3, "open-loop offered load, requests/sec")
	workers := flag.Int("closed", 0, "closed-loop worker count (overrides -rate)")
	curve := flag.Bool("curve", false, "sweep the full latency-vs-load curve over every topology")
	bench := flag.Bool("bench", false, "run the sweep and write the qps-at-SLO benchmark JSON")
	rates := flag.String("rates", "", "comma-separated offered-load ladder for -curve/-bench/-check (default: built-in)")
	slo := flag.Float64("slo", mcn.DefaultServeSLONs, "p99 SLO in nanoseconds for qps-at-SLO")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	out := flag.String("out", "", "write output to this file instead of stdout")
	traceOut := flag.String("trace", "", "single run: write a Perfetto/Chrome trace-event JSON of sampled request spans to this file")
	sample := flag.Int("sample", 1, "1-in-N span sampling rate for -trace/-metrics (1 traces every request)")
	metricsOut := flag.String("metrics", "", "single run: write the metrics-registry snapshot JSON to this file")
	timelineOut := flag.String("timeline", "", "single run: write the windowed timeline JSON (per-1ms qps/tails/queue/subsystem series, burn-rate alerts, attributed incidents) to this file")
	check := flag.String("check", "", "regenerate every section of this BENCH_serve.json or BENCH_wallclock.json at -seed and exit non-zero naming each JSON path that drifted (-rates trims the serving sweep to a partial ladder)")
	wallBench := flag.Bool("wallbench", false, "count the simulator's kernel work (events, switches, spawns, ...) over the canonical topologies and write the BENCH_wallclock.json artifact")
	flag.Parse()

	topo, err := mcn.ParseTopo(*topoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-topo: %v; want %s\n", err, mcn.TopoGrammar())
		os.Exit(2)
	}

	var ladder []float64
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -rates entry %q: %v\n", f, err)
				os.Exit(2)
			}
			ladder = append(ladder, v)
		}
	}

	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-check: %v\n", err)
			os.Exit(1)
		}
		notes, drift := mcn.CheckArtifact(raw, *seed, ladder)
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "-check: %s\n", n)
		}
		for _, d := range drift {
			fmt.Fprintf(os.Stderr, "-check: DRIFT %s\n", d)
		}
		if len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "-check: %d values drifted from %s\n", len(drift), *check)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "-check: %s matches\n", *check)
		return
	}

	var text string
	var value any
	switch {
	case *wallBench:
		r := mcn.WallBench(*seed)
		value, text = r, r.String()
		*jsonOut = *jsonOut || *out != "" // the bench artifact is always JSON
	case *bench:
		b := mcn.RunServeBench(*seed, *slo, ladder)
		value, text = b, b.String()
		*jsonOut = *jsonOut || *out != "" // the bench artifact is always JSON
	case *curve:
		r := mcn.ServeCurve(*seed, ladder)
		r.SLONs = *slo
		value, text = r, r.String()
	default:
		var res *mcn.ServeResult
		if *traceOut != "" || *metricsOut != "" || *timelineOut != "" {
			tr := mcn.ServeTraced(*seed, topo, *rate, *workers, *sample)
			res = tr.Result
			ct := mcn.CombinedTrace{Tracer: tr.Tracer, Snapshot: tr.Snapshot, Timeline: tr.Timeline}
			writeArtifact(*traceOut, ct.Write)
			writeArtifact(*metricsOut, tr.Snapshot.WriteJSON)
			writeArtifact(*timelineOut, tr.Timeline.WriteJSON)
		} else {
			res = mcn.ServeOnce(*seed, topo, *rate, *workers)
		}
		j := runJSON{
			Seed: res.Seed, Topo: *topoFlag, OfferedQPS: res.OfferedQPS, Workers: res.ClosedWorkers,
			QPS: res.QPS, N: res.N, Errors: res.Errors, Unfinished: res.Unfinished,
			P50Ns: res.Total.Quantile(0.50), P95Ns: res.Total.Quantile(0.95),
			P99Ns: res.Total.Quantile(0.99), P999Ns: res.Total.Quantile(0.999),
			MaxNs: float64(res.Total.Max()), Shed: res.Shed, Rerouted: res.Rerouted,
			Misses: res.Misses, FailedOver: res.FailedOver,
			StaleReads: res.ReplCounters.StaleReads,
			Degraded:   res.Degraded(),
		}
		if res.OpsOn {
			j.Ops = &res.Ops
		}
		for _, ss := range res.PerShard {
			j.Shards = append(j.Shards, runShardJSON{
				Shard: ss.Shard, Name: ss.Name, N: ss.N, Errors: ss.Errors,
				Unfinished: ss.Unfinished, Shed: ss.Shed, Rerouted: ss.Rerouted,
				Misses: ss.Misses, FailedOver: ss.FailedOver,
				P99Ns: ss.Lat.Quantile(0.99), MaxNs: ss.Lat.Max(),
			})
		}
		value, text = j, res.String()
	}

	var buf []byte
	if *jsonOut {
		var err error
		buf, err = json.MarshalIndent(value, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
	} else {
		buf = []byte(text)
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Stdout.Write(buf)
}

// writeArtifact streams one trace/metrics artifact to path (no-op when
// path is empty).
func writeArtifact(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err == nil {
		err = f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		f.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
