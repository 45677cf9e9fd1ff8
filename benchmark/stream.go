package main

import (
	"fmt"
	"math"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/workloads"
)

// The stream workload is Fig. 8's shapes, run by the repository's own
// generators: workloads.Iperf (one server, four clients) on three fabrics
// and workloads.PingSweep host->DIMM. Bytes, not requests, carry the load:
// 9KB frames, TSO, the core memcpy/DMA path, sram rings, dram contention
// and (10GbE leg) the ethdev NIC rings. Neither generator has random input,
// so the simulated results are the same for every seed.
const (
	iperfWarm    = 2 * sim.Millisecond
	iperfPort    = 5201
	iperfClients = 4
	pingBytes    = 16
)

// iperfLeg is one fabric of Fig. 8(a).
type iperfLeg struct {
	name, metric string
	build        func(k *sim.Kernel) (server cluster.Endpoint, clients []cluster.Endpoint, fold func(*hw))
}

var iperfLegs = []iperfLeg{
	{"host<-4 DIMMs mcn5", "sim_host_mcn_gbps", func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint, func(*hw)) {
		s := cluster.NewMcnServer(k, 8, core.MCN5.Options())
		return s.Endpoints()[0], s.McnEndpoints()[:iperfClients], func(h *hw) { h.addServer(s) }
	}},
	{"DIMM<-4 DIMMs mcn5", "sim_mcn_mcn_gbps", func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint, func(*hw)) {
		s := cluster.NewMcnServer(k, 8, core.MCN5.Options())
		eps := s.McnEndpoints()
		return eps[0], eps[1 : 1+iperfClients], func(h *hw) { h.addServer(s) }
	}},
	{"10GbE", "sim_eth_gbps", func(k *sim.Kernel) (cluster.Endpoint, []cluster.Endpoint, func(*hw)) {
		c := cluster.NewEthCluster(k, 1+iperfClients, node.HostConfig(""))
		eps := c.Endpoints()
		return eps[0], eps[1:], func(h *hw) { h.addEth(c) }
	}},
}

// run measures the leg for dur after the warm-up and returns the aggregate
// goodput in Gb/s, how many of the client connections moved nothing, and how
// many processes outlived Shutdown.
func (leg iperfLeg) run(h *hw, dur sim.Duration) (gbps float64, dead int64, live int) {
	k := sim.NewKernel()
	srv, cls, fold := leg.build(k)
	res := workloads.Iperf(k, srv, cls, iperfPort, iperfWarm, dur)
	// Iperf totals the window one millisecond after it closes.
	k.RunUntil(k.Now().Add(iperfWarm + dur + 2*sim.Millisecond))
	h.addKernel(k)
	fold(h)
	k.Shutdown()
	for _, bps := range res.PerClient {
		if bps == 0 {
			dead++
		}
	}
	return res.GoodputBps * 8 / 1e9, dead, k.LiveProcs()
}

// runUntil advances k in 1ms steps until done() or limit of simulated time
// has passed; the step boundaries do not change what is simulated.
func runUntil(k *sim.Kernel, done func() bool, limit sim.Duration) {
	for end := k.Now().Add(limit); !done() && k.Now() < end; {
		k.RunFor(sim.Millisecond)
	}
}

// ping16 is the mean RTT (ns) of n 16-byte echoes; answered is false when
// every one of them was lost.
func ping16(k *sim.Kernel, from, to cluster.Endpoint, n int) (rtt float64, answered bool) {
	out := workloads.PingSweep(k, from, to.IP, []int{pingBytes}, n)
	runUntil(k, func() bool { return len(out) > 0 }, sim.Second)
	d, answered := out[pingBytes]
	return d.Nanoseconds(), answered
}

func streamScenario() *scenario {
	return &scenario{
		name: "stream",
		why:  "Fig. 8: iperf on host<-DIMMs, DIMM<-DIMMs and 10GbE plus host->DIMM ping. Cost is per byte (9KB frames, TSO, memcpy/DMA, sram rings, NIC rings); kvstore, serve and mcnt are idle.",
		setup: func(e *env) {
			// Build every fabric, connect, and move one short window.
			var h hw
			for _, leg := range iperfLegs {
				leg.run(&h, sim.Millisecond/2)
			}
		},
		rep: streamRep,
	}
}

func streamRep(e *env, _ bool) part {
	dur, pings := 20*sim.Millisecond, 100
	if e.tiny {
		dur, pings = 2*sim.Millisecond, 10
	}
	p := part{e2e: values{}, layers: values{}}
	var h hw
	logSum := 0.0
	for _, leg := range iperfLegs {
		g, dead, live := leg.run(&h, dur)
		if live != 0 {
			p.bad = append(p.bad, fmt.Sprintf("stream %s: %d processes alive after Shutdown", leg.name, live))
		}
		p.layers[leg.metric] = g
		logSum += math.Log(g)
		p.attempted += iperfClients
		p.failed += dead
		p.simPs += int64(iperfWarm + dur)
	}
	// The geometric mean weighs the legs equally: the arithmetic one is
	// 2/3 host-mcn, and would hide the loss of the whole 10GbE leg.
	p.e2e["sim_throughput_gbps"] = math.Exp(logSum / float64(len(iperfLegs)))

	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 8, core.MCN5.Options())
	mcnRTT, mcnOK := ping16(k, s.Endpoints()[0], s.McnEndpoints()[0], pings)
	h.addKernel(k)
	h.addServer(s)
	p.simPs += int64(k.Now())
	k.Shutdown()

	k = sim.NewKernel()
	c := cluster.NewEthCluster(k, 2, node.HostConfig(""))
	ethRTT, ethOK := ping16(k, c.Endpoints()[0], c.Endpoints()[1], pings)
	h.addKernel(k)
	h.addEth(c)
	k.Shutdown()

	p.attempted += 2
	for _, ok := range []bool{mcnOK, ethOK} {
		if !ok {
			p.failed++
		}
	}
	p.layers["sim_ping_rtt_us"] = mcnRTT / 1e3
	p.e2e["sim_serial_ops_per_s"] = ratio(1e9, mcnRTT)

	// The paper's orderings, checked in the same command as the numbers.
	a, b, c10 := p.layers["sim_host_mcn_gbps"], p.layers["sim_mcn_mcn_gbps"], p.layers["sim_eth_gbps"]
	if !(a > b && b > c10) {
		p.bad = append(p.bad, fmt.Sprintf("stream: goodput ordering host-mcn %.2f > mcn-mcn %.2f > 10GbE %.2f does not hold", a, b, c10))
	}
	if !(mcnRTT < ethRTT) {
		p.bad = append(p.bad, fmt.Sprintf("stream: mcn5 16B RTT %.0fns is not below 10GbE's %.0fns", mcnRTT, ethRTT))
	}

	// The unit operation is one link-level message: MCN messages the host
	// driver delivered or relayed, and frames the NICs sent.
	p.ops = h.hostDelivered + h.relayedDimm + h.nicTxFrames
	p.layers.merge(h.layers(p.ops))
	p.digest = fmt.Sprintf("%v %v eth16=%v", p.e2e, p.layers, ethRTT)
	return p
}
