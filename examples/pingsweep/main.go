// pingsweep prints a Fig. 8(b)/(c)-style latency comparison: round-trip
// times across payload sizes for a 10GbE pair, host-to-MCN, and MCN-to-MCN
// at increasing optimization levels.
package main

import (
	"fmt"

	"github.com/mcn-arch/mcn"
)

var sizes = []int{16, 256, 1024, 4096, 8192}

func sweepEth() map[int]mcn.Duration {
	k := mcn.NewKernel()
	c := mcn.NewEthCluster(k, 2)
	eps := c.Endpoints()
	return finish(k, mcn.PingSweep(k, eps[0], eps[1].IP, sizes, 5))
}

func sweepMcn(level mcn.OptLevel, mcnToMcn bool) map[int]mcn.Duration {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 2, level.Options())
	from := s.Endpoints()[0]
	to := s.McnEndpoints()[0].IP
	if mcnToMcn {
		from = s.McnEndpoints()[0]
		to = s.McnEndpoints()[1].IP
	}
	return finish(k, mcn.PingSweep(k, from, to, sizes, 5))
}

// finish steps k until every size has its mean, for at most a simulated
// second: at mcn0 the HR-timer polling never idles, so one RunFor would
// simulate the whole second.
func finish(k *mcn.Kernel, res map[int]mcn.Duration) map[int]mcn.Duration {
	for end := k.Now().Add(mcn.Second); len(res) < len(sizes) && k.Now() < end; {
		k.RunFor(mcn.Millisecond)
	}
	return res
}

func printRow(name string, r map[int]mcn.Duration) {
	fmt.Printf("%-16s", name)
	for _, s := range sizes {
		fmt.Printf(" %10v", r[s])
	}
	fmt.Println()
}

func main() {
	fmt.Printf("%-16s", "payload")
	for _, s := range sizes {
		fmt.Printf(" %9dB", s)
	}
	fmt.Println()
	printRow("10GbE", sweepEth())
	for _, l := range []mcn.OptLevel{mcn.MCN0, mcn.MCN1, mcn.MCN5} {
		printRow(fmt.Sprintf("host-mcn %v", l), sweepMcn(l, false))
	}
	for _, l := range []mcn.OptLevel{mcn.MCN0, mcn.MCN5} {
		printRow(fmt.Sprintf("mcn-mcn %v", l), sweepMcn(l, true))
	}
	fmt.Println("\nThe memory channel removes the PHY entirely; ALERT_N (mcn1) removes")
	fmt.Println("the polling wait, and the optimized stack keeps even two-hop MCN-to-MCN")
	fmt.Println("round trips below the single-hop 10GbE wire.")
}
