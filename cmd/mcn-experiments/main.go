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
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/mcn-arch/mcn"
)

func main() {
	fig := flag.String("fig", "", "which figure/table to regenerate: 8a, 8b, 8c, t3, 9, 10, 11, faults, serve, serve-batch, serve-faults[:TOPO], serve-admit, serve-repl, serve-attrib, serve-mcnt, serve-ops, serve-ops-faults, serve-timeline, all")
	headline := flag.Bool("headline", false, "compute the abstract's headline numbers")
	discussion := flag.Bool("discussion", false, "run the Sec. VII TCP-overhead / fast-transport comparison")
	scale := flag.Float64("scale", float64(mcn.QuickScale), "working-set multiplier for figs 9-11")
	workloadList := flag.String("workloads", "", "comma-separated workload subset (default: full suite)")
	seed := flag.Uint64("seed", 42, "random seed for -fig faults/serve/serve-faults/serve-admit/serve-attrib (same seed replays exactly)")
	flag.Parse()

	if !*headline && !*discussion && *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	var names []string
	if *workloadList != "" {
		names = strings.Split(*workloadList, ",")
	}
	s := mcn.Scale(*scale)

	run := func(f string) {
		// serve-faults takes an optional ":TOPO" (default mcn5);
		// serve-ops-faults is its mcn5+batch+ops spelling.
		topoText := "mcn5"
		if rest, ok := strings.CutPrefix(f, "serve-faults:"); ok {
			f, topoText = "serve-faults", rest
		} else if f == "serve-ops-faults" {
			f, topoText = "serve-faults", "mcn5+batch+ops"
		}
		switch f {
		case "8a":
			fmt.Print(mcn.Fig8a())
		case "8b":
			fmt.Print(mcn.Fig8b())
		case "8c":
			fmt.Print(mcn.Fig8c())
		case "t3", "table3", "3":
			fmt.Print(mcn.Table3())
		case "9":
			fmt.Print(mcn.Fig9(names, s))
		case "10":
			fmt.Print(mcn.Fig10(names, s))
		case "11":
			fmt.Print(mcn.Fig11(names, s))
		case "faults":
			fmt.Print(mcn.FaultSweep(*seed, nil))
		case "serve":
			fmt.Print(mcn.ServeCurve(*seed, nil))
		case "serve-batch":
			fmt.Print(mcn.ServeBatch(*seed, nil))
		case "serve-faults":
			topo, err := mcn.ParseTopo(topoText)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-fig serve-faults: %v; want %s\n", err, mcn.TopoGrammar())
				os.Exit(2)
			}
			fmt.Print(mcn.ServeFaults(*seed, topo))
		case "serve-admit":
			fmt.Print(mcn.ServeAdmit(*seed))
		case "serve-repl":
			fmt.Print(mcn.ServeRepl(*seed))
		case "serve-attrib":
			fmt.Print(mcn.ServeAttrib(*seed))
		case "serve-mcnt":
			fmt.Print(mcn.ServeMcnt(*seed, nil))
		case "serve-ops":
			fmt.Print(mcn.ServeOps(*seed))
		case "serve-timeline":
			fmt.Print(mcn.ServeTimeline(*seed))
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", f)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *fig == "all" {
		for _, f := range []string{"8a", "8b", "8c", "t3", "9", "10", "11"} {
			run(f)
		}
	} else if *fig != "" {
		run(*fig)
	}
	if *headline {
		fmt.Print(mcn.Headline(names, s))
	}
	if *discussion {
		fmt.Print(mcn.Discussion())
	}
}
