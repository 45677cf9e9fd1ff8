// Command mcnsim is the general entry point: print the simulated system
// configuration (Table II) or run a one-off scenario combining an MCN
// server, a workload, and an optimization level.
//
// Usage:
//
//	mcnsim -print-config
//	mcnsim -dimms 4 -level 5 -workload sort -scale 0.1
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mcn-arch/mcn"
)

func main() {
	printConfig := flag.Bool("print-config", false, "print the Table II system configuration")
	dimms := flag.Int("dimms", 4, "MCN DIMM count")
	level := flag.Int("level", 3, "optimization level 0..5")
	workload := flag.String("workload", "mg", "workload name (see -list)")
	list := flag.Bool("list", false, "list available workloads")
	scale := flag.Float64("scale", 0.1, "working-set multiplier")
	flag.Parse()

	if *printConfig {
		h := mcn.HostConfig("host")
		m := mcn.McnConfig("mcn")
		fmt.Println("System configuration (Table II):")
		fmt.Printf("  host: %d cores @ %.2f GHz, %d x %s memory channels\n",
			h.Cores, h.FreqHz/1e9, h.Channels, h.DRAM.Name)
		fmt.Printf("  MCN:  %d cores @ %.2f GHz, %d x %s private channel\n",
			m.Cores, m.FreqHz/1e9, m.Channels, m.DRAM.Name)
		fmt.Printf("  network: 10GbE, 1us link latency; MCN SRAM buffer: 96KB\n")
		fmt.Printf("  optimization levels (Table I):\n")
		for _, l := range mcn.OptLevels() {
			o := l.Options()
			fmt.Printf("    %v: interrupt=%v csum-bypass=%v mtu=%d tso=%v dma=%v\n",
				l, o.DimmInterrupt, o.ChecksumBypass, o.MTU, o.TSO, o.DMA)
		}
		return
	}
	if *list {
		for _, n := range mcn.WorkloadNames() {
			fmt.Println(n)
		}
		return
	}

	fn, ok := mcn.WorkloadSuite()[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, *dimms, mcn.OptLevel(*level).Options())
	eps := s.Endpoints()
	w := mcn.LaunchMPI(k, eps, 7000, func(r *mcn.Rank) { fn(r, *scale) })
	// Step until the job ends: at mcn0 the HR-timer polling never idles,
	// so one long RunFor would simulate the whole cap.
	for end := k.Now().Add(600 * mcn.Second); !w.Done() && k.Now() < end; {
		k.RunFor(mcn.Millisecond)
	}
	if !w.Done() {
		fmt.Fprintln(os.Stderr, "workload did not finish in 600 simulated seconds")
		os.Exit(1)
	}
	el := w.Elapsed()
	cpu := s.Host.CPU
	fmt.Printf("workload=%s dimms=%d level=mcn%d ranks=%d\n", *workload, *dimms, *level, len(eps))
	fmt.Printf("execution time:       %v\n", el)
	fmt.Printf("aggregate DRAM:       %.2f GB/s (%.1f MB moved)\n",
		float64(s.TotalDRAMBytes())/el.Seconds()/1e9, float64(s.TotalDRAMBytes())/1e6)
	fmt.Printf("host CPU utilization: %.1f%%\n", cpu.Busy.Busy.Seconds()/(el.Seconds()*float64(cpu.NumCores()))*100)
	fmt.Printf("energy:               %.2f J\n", mcn.DefaultPower().McnServerEnergy(s, el))
}
