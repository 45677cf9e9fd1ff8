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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/mcn-arch/mcn/internal/exp"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/stats"
)

// runJSON is the single-run JSON shape.
type runJSON struct {
	Seed       uint64             `json:"seed"`
	Topo       string             `json:"topo"`
	OfferedQPS float64            `json:"offered_qps,omitempty"`
	Workers    int                `json:"closed_workers,omitempty"`
	QPS        float64            `json:"qps"`
	N          int64              `json:"n"`
	Errors     int64              `json:"errors"`
	Unfinished int64              `json:"unfinished"`
	P50Ns      float64            `json:"p50_ns"`
	P95Ns      float64            `json:"p95_ns"`
	P99Ns      float64            `json:"p99_ns"`
	P999Ns     float64            `json:"p999_ns"`
	MaxNs      float64            `json:"max_ns"`
	Shed       int64              `json:"shed,omitempty"`
	Rerouted   int64              `json:"rerouted,omitempty"`
	Misses     int64              `json:"misses,omitempty"`
	FailedOver int64              `json:"failed_over,omitempty"`
	StaleReads int64              `json:"stale_reads,omitempty"`
	Degraded   []int              `json:"degraded,omitempty"`
	Ops        *stats.OpsCounters `json:"ops,omitempty"`
	Shards     []runShardJSON     `json:"shards"`
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints to stdout and stderr, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcn-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "random seed; the same seed replays bit-identically")
	topoFlag := fs.String("topo", "mcn5", "serving topology, "+exp.TopoGrammar())
	rate := fs.Float64("rate", 400e3, "open-loop offered load, requests/sec")
	workers := fs.Int("closed", 0, "closed-loop worker count (overrides -rate)")
	curve := fs.Bool("curve", false, "sweep the full latency-vs-load curve over every topology")
	bench := fs.Bool("bench", false, "run the sweep and write the qps-at-SLO benchmark JSON")
	rates := fs.String("rates", "", "comma-separated offered-load ladder for -curve/-bench/-check (default: built-in)")
	slo := fs.Float64("slo", exp.DefaultServeSLONs, "p99 SLO in nanoseconds for qps-at-SLO")
	jsonOut := fs.Bool("json", false, "emit JSON instead of text")
	out := fs.String("out", "", "write output to this file instead of stdout")
	traceOut := fs.String("trace", "", "single run: write a Perfetto/Chrome trace-event JSON of sampled request spans to this file")
	sample := fs.Int("sample", 1, "1-in-N span sampling rate for -trace/-metrics (1 traces every request)")
	metricsOut := fs.String("metrics", "", "single run: write the metrics-registry snapshot JSON to this file")
	timelineOut := fs.String("timeline", "", "single run: write the windowed timeline JSON (per-1ms qps/tails/queue/subsystem series, burn-rate alerts, attributed incidents) to this file")
	check := fs.String("check", "", "regenerate every section of this BENCH_serve.json or BENCH_wallclock.json at -seed and exit non-zero naming each JSON path that drifted (-rates trims the serving sweep to a partial ladder)")
	wallBench := fs.Bool("wallbench", false, "count the simulator's kernel work (events, switches, spawns, ...) over the canonical topologies and write the BENCH_wallclock.json artifact")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	topo, err := exp.ParseTopo(*topoFlag)
	if err != nil {
		fmt.Fprintf(stderr, "-topo: %v; want %s\n", err, exp.TopoGrammar())
		return 2
	}

	var ladder []float64
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintf(stderr, "bad -rates entry %q: %v\n", f, err)
				return 2
			}
			if !validRate(v) {
				fmt.Fprintf(stderr, "-rates entry %v: want a finite rate > 0 requests/sec\n", v)
				return 2
			}
			ladder = append(ladder, v)
		}
	}

	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintf(stderr, "-check: %v\n", err)
			return 1
		}
		notes, drift := exp.CheckArtifact(raw, *seed, ladder)
		for _, n := range notes {
			fmt.Fprintf(stderr, "-check: %s\n", n)
		}
		for _, d := range drift {
			fmt.Fprintf(stderr, "-check: DRIFT %s\n", d)
		}
		if len(drift) > 0 {
			fmt.Fprintf(stderr, "-check: %d values drifted from %s\n", len(drift), *check)
			return 1
		}
		fmt.Fprintf(stderr, "-check: %s matches\n", *check)
		return 0
	}

	var text string
	var value any
	switch {
	case *wallBench:
		r := exp.WallBench(*seed)
		value, text = r, r.String()
		*jsonOut = *jsonOut || *out != "" // the bench artifact is always JSON
	case *bench:
		b := exp.RunServeBench(*seed, *slo, ladder)
		value, text = b, b.String()
		*jsonOut = *jsonOut || *out != "" // the bench artifact is always JSON
	case *curve:
		r := exp.ServeCurve(*seed, ladder)
		r.SLONs = *slo
		value, text = r, r.String()
	default:
		if *workers < 1 && !validRate(*rate) {
			fmt.Fprintf(stderr, "-rate %v: want a finite rate > 0 requests/sec, or -closed N\n", *rate)
			return 2
		}
		var res *serve.Result
		if *traceOut != "" || *metricsOut != "" || *timelineOut != "" {
			tr := exp.ServeTraced(*seed, topo, *rate, *workers, *sample)
			res = tr.Result
			ct := obs.PerfettoTrace{Tracer: tr.Tracer, Snapshot: tr.Snapshot, Timeline: tr.Timeline}
			for _, a := range []struct {
				path  string
				write func(io.Writer) error
			}{{*traceOut, ct.Write}, {*metricsOut, tr.Snapshot.WriteJSON}, {*timelineOut, tr.Timeline.WriteJSON}} {
				if err := writeArtifact(a.path, a.write); err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
			}
		} else {
			res = exp.ServeOnce(*seed, topo, *rate, *workers)
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

	buf := []byte(text)
	if *jsonOut {
		var err error
		buf, err = json.MarshalIndent(value, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		buf = append(buf, '\n')
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	stdout.Write(buf)
	return 0
}

// validRate reports whether r is an offered load an open-loop run can
// generate.
func validRate(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

// writeArtifact streams one trace/metrics artifact to path (no-op when
// path is empty).
func writeArtifact(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
