// kvcache demonstrates the paper's rack-replacement idea (Sec. VII): a
// memcached-class key/value store served by MCN DIMMs inside the server
// instead of by cache nodes across the rack network. The same store code
// runs in both positions; only the "network" underneath differs.
package main

import (
	"bytes"
	"fmt"

	"github.com/mcn-arch/mcn"
)

func run(name string, build func(k *mcn.Kernel) (srv, cli mcn.Endpoint)) {
	k := mcn.NewKernel()
	srvEp, cliEp := build(k)
	mcn.NewKVServer(k, srvEp, 11211)
	var p50, p99 float64
	var gets int
	done := false
	k.Go("client", func(p *mcn.Proc) {
		c, err := mcn.DialKV(p, cliEp, srvEp.IP, 11211)
		if err != nil {
			panic(err)
		}
		val := bytes.Repeat([]byte{0x42}, 1024)
		for i := 0; i < 64; i++ {
			c.Set(p, fmt.Sprintf("key-%d", i), val)
		}
		for i := 0; i < 512; i++ {
			if _, ok, _ := c.Get(p, fmt.Sprintf("key-%d", i%64)); !ok {
				panic("miss")
			}
			gets++
		}
		p50, p99 = c.Lat.Median(), c.Lat.Quantile(0.99)
		done = true
	})
	// Step until the client is done, for at most 10 simulated seconds: at
	// mcn0 the HR-timer polling never idles, so one RunFor would simulate
	// all ten.
	for end := k.Now().Add(10 * mcn.Second); !done && k.Now() < end; {
		k.RunFor(mcn.Millisecond)
	}
	fmt.Printf("%-22s %6d GETs   p50 %7.2fus   p99 %7.2fus\n",
		name, gets, p50/1e3, p99/1e3)
}

func main() {
	fmt.Println("1KB GET latency: near-memory MCN DIMM vs a cache node across the rack")
	run("MCN DIMM (mcn5)", func(k *mcn.Kernel) (mcn.Endpoint, mcn.Endpoint) {
		s := mcn.NewMcnServer(k, 1, mcn.MCN5.Options())
		return s.McnEndpoints()[0], s.Endpoints()[0]
	})
	run("MCN DIMM (mcn0)", func(k *mcn.Kernel) (mcn.Endpoint, mcn.Endpoint) {
		s := mcn.NewMcnServer(k, 1, mcn.MCN0.Options())
		return s.McnEndpoints()[0], s.Endpoints()[0]
	})
	run("10GbE cache node", func(k *mcn.Kernel) (mcn.Endpoint, mcn.Endpoint) {
		c := mcn.NewEthCluster(k, 2)
		eps := c.Endpoints()
		return eps[1], eps[0]
	})
}
