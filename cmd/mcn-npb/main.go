// Command mcn-npb runs one NPB-like kernel on a scale-up server or an
// MCN-enabled server (the Fig. 11 methodology) and reports the execution
// time and aggregate DRAM traffic.
//
// Usage:
//
//	mcn-npb -kernel mg -system scaleup -cores 8
//	mcn-npb -kernel mg -system mcn -dimms 2 -level 3
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mcn-arch/mcn"
)

func main() {
	kernel := flag.String("kernel", "mg", "cg|ep|ft|is|lu|mg (or any suite workload)")
	system := flag.String("system", "scaleup", "scaleup | mcn")
	cores := flag.Int("cores", 8, "scale-up core count (ranks = cores)")
	dimms := flag.Int("dimms", 2, "MCN DIMM count (mcn system)")
	level := flag.Int("level", 3, "MCN optimization level")
	scale := flag.Float64("scale", 0.1, "working-set multiplier")
	flag.Parse()

	fn, ok := mcn.WorkloadSuite()[*kernel]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown kernel %q\n", *kernel)
		os.Exit(2)
	}
	k := mcn.NewKernel()
	var eps []mcn.Endpoint
	var dramBytes func() int64
	switch *system {
	case "scaleup":
		h := mcn.NewScaleUp(k, *cores)
		lo := mcn.IP{127, 0, 0, 1}
		for i := 0; i < *cores; i++ {
			eps = append(eps, mcn.Endpoint{Node: h.Node, IP: lo})
		}
		dramBytes = h.TotalDRAMBytes
	case "mcn":
		s := mcn.NewMcnServer(k, *dimms, mcn.OptLevel(*level).Options())
		hostEp := s.Endpoints()[0]
		for i := 0; i < 4; i++ {
			eps = append(eps, hostEp)
		}
		for _, m := range s.McnEndpoints() {
			for i := 0; i < 4; i++ {
				eps = append(eps, m)
			}
		}
		dramBytes = s.TotalDRAMBytes
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}

	w := mcn.LaunchMPI(k, eps, 7000, func(r *mcn.Rank) { fn(r, *scale) })
	// Step until the job ends: at mcn0 the HR-timer polling never idles,
	// so one long RunFor would simulate the whole cap.
	for end := k.Now().Add(600 * mcn.Second); !w.Done() && k.Now() < end; {
		k.RunFor(mcn.Millisecond)
	}
	if !w.Done() {
		fmt.Fprintln(os.Stderr, "job did not finish within 600 simulated seconds")
		os.Exit(1)
	}
	el := w.Elapsed()
	fmt.Printf("kernel=%s system=%s ranks=%d\n", *kernel, *system, len(eps))
	fmt.Printf("execution time:        %v\n", el)
	fmt.Printf("aggregate DRAM moved:  %.1f MB\n", float64(dramBytes())/1e6)
	fmt.Printf("aggregate DRAM rate:   %.2f GB/s\n", float64(dramBytes())/el.Seconds()/1e9)
}
