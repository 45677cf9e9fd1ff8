// Command mcn-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	mcn-experiments -fig all            # everything (slow)
//	mcn-experiments -fig 8a             # one figure
//	mcn-experiments -fig 9 -scale 0.1 -workloads mg,grep
//	mcn-experiments -fig serve-faults:mcn5+batch+mcnt   # DIMM flap on any topology
//	mcn-experiments -headline
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/mcn-arch/mcn/internal/exp"
	"github.com/mcn-arch/mcn/internal/npb"
	"github.com/mcn-arch/mcn/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints to stdout and stderr, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcn-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "which figure/table to regenerate: 8a, 8b, 8c, t3, 9, 10, 11, faults, serve, serve-batch, serve-faults[:TOPO], serve-admit, serve-repl, serve-attrib, serve-mcnt, serve-ops, serve-ops-faults, serve-timeline, all")
	headline := fs.Bool("headline", false, "compute the abstract's headline numbers")
	discussion := fs.Bool("discussion", false, "run the Sec. VII TCP-overhead / fast-transport comparison")
	scale := fs.Float64("scale", float64(exp.QuickScale), "working-set multiplier for figs 9-11")
	workloadList := fs.String("workloads", "", "comma-separated workload subset (default: full suite)")
	seed := fs.Uint64("seed", 42, "random seed for -fig faults/serve/serve-faults/serve-admit/serve-attrib (same seed replays exactly)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if !*headline && !*discussion && *fig == "" {
		fmt.Fprintln(stderr, "Usage of mcn-experiments:")
		fs.PrintDefaults()
		return 2
	}
	var names []string
	if *workloadList != "" {
		names = strings.Split(*workloadList, ",")
	}
	// Figs. 9 and 10 and the headline run workloads from the suite,
	// Fig. 11 its NPB kernels, all at -scale.
	if *headline || *fig == "9" || *fig == "10" || *fig == "11" || *fig == "all" {
		if !(*scale >= 0) {
			fmt.Fprintf(stderr, "-scale %v: want >= 0\n", *scale)
			return 2
		}
		want := workloads.SuiteNames
		if *fig == "11" || *fig == "all" {
			want = npb.Names
		}
		for _, n := range names {
			if !slices.Contains(want, n) {
				fmt.Fprintf(stderr, "-workloads %q: want a subset of %s\n", n, strings.Join(want, ","))
				return 2
			}
		}
	}
	s := exp.Scale(*scale)

	show := func(f string) int {
		// serve-faults takes an optional ":TOPO" (default mcn5);
		// serve-ops-faults is its mcn5+batch+ops spelling.
		topoText := "mcn5"
		if rest, ok := strings.CutPrefix(f, "serve-faults:"); ok {
			f, topoText = "serve-faults", rest
		} else if f == "serve-ops-faults" {
			f, topoText = "serve-faults", "mcn5+batch+ops"
		}
		var r fmt.Stringer
		switch f {
		case "8a":
			r = exp.Fig8a()
		case "8b":
			r = exp.Fig8b()
		case "8c":
			r = exp.Fig8c()
		case "t3", "table3", "3":
			r = exp.Table3()
		case "9":
			r = exp.Fig9(names, s)
		case "10":
			r = exp.Fig10(names, s)
		case "11":
			r = exp.Fig11(names, s)
		case "faults":
			r = exp.FaultSweep(*seed, nil)
		case "serve":
			r = exp.ServeCurve(*seed, nil)
		case "serve-batch":
			r = exp.ServeBatch(*seed, nil)
		case "serve-faults":
			topo, err := exp.ParseTopo(topoText)
			if err != nil {
				fmt.Fprintf(stderr, "-fig serve-faults: %v; want %s\n", err, exp.TopoGrammar())
				return 2
			}
			r = exp.ServeFaults(*seed, topo)
		case "serve-admit":
			r = exp.ServeAdmit(*seed)
		case "serve-repl":
			r = exp.ServeRepl(*seed)
		case "serve-attrib":
			r = exp.ServeAttrib(*seed)
		case "serve-mcnt":
			r = exp.ServeMcnt(*seed, nil)
		case "serve-ops":
			r = exp.ServeOps(*seed)
		case "serve-timeline":
			r = exp.ServeTimeline(*seed)
		default:
			fmt.Fprintf(stderr, "unknown figure %q\n", f)
			return 2
		}
		fmt.Fprintln(stdout, r)
		return 0
	}

	if *fig == "all" {
		for _, f := range []string{"8a", "8b", "8c", "t3", "9", "10", "11"} {
			show(f)
		}
	} else if *fig != "" {
		if code := show(*fig); code != 0 {
			return code
		}
	}
	if *headline {
		fmt.Fprint(stdout, exp.Headline(names, s))
	}
	if *discussion {
		fmt.Fprint(stdout, exp.Discussion())
	}
	return 0
}
