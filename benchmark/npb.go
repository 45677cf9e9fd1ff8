package main

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/npb"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// The npb-mpi workload is the application-transparent side (Fig. 9/11): NPB
// CG, MG and IS over mpi.Launch on an 8-DIMM mcn3 server, ranks on the
// host and on every DIMM, run back to back, then a short Allreduce latency
// loop on the same fabric. mpi collectives, the roofline compute through cpu
// and dram (MemStream) and mid-size messages through the non-DMA driver
// path carry the load; the serving tier is idle. The NPB skeletons have no
// random input, so the simulated results are the same for every seed.
const (
	npbScale    = 0.15
	npbBasePort = 7000
	npbLimit    = 2 * sim.Second
)

var npbKernels = []string{"cg", "mg", "is"}

// npbCluster builds the server and its rank placement: perNode ranks on
// the host and on each DIMM.
func npbCluster(k *sim.Kernel, perNode int) (*cluster.McnServer, []cluster.Endpoint) {
	s := cluster.NewMcnServer(k, 8, core.MCN3.Options())
	var eps []cluster.Endpoint
	for _, ep := range s.Endpoints() {
		for i := 0; i < perNode; i++ {
			eps = append(eps, ep)
		}
	}
	return s, eps
}

// mpiJob is one finished MPI job.
type mpiJob struct {
	done        bool
	elapsed     sim.Duration
	msgs, bytes int64
	dramBytes   int64
	ranks       int
}

// launch runs prog on a fresh cluster to completion and folds the
// cluster's counters into h.
func launch(h *hw, perNode int, prog mpi.Program) mpiJob {
	k := sim.NewKernel()
	s, eps := npbCluster(k, perNode)
	j := mpiJob{ranks: len(eps)}
	w := mpi.Launch(k, eps, npbBasePort, func(r *mpi.Rank) {
		prog(r)
		j.msgs += r.MsgsSent
		j.bytes += r.BytesSent
	})
	runUntil(k, w.Done, npbLimit)
	j.done, j.elapsed, j.dramBytes = w.Done(), w.Elapsed(), s.TotalDRAMBytes()
	h.addKernel(k)
	h.addServer(s)
	k.Shutdown()
	return j
}

func npbScenario() *scenario {
	return &scenario{
		name: "npb-mpi",
		why:  "Fig. 9/11: NPB CG+MG+IS over MPI on an 8-DIMM mcn3 server, ranks on host and DIMMs. mpi collectives, roofline compute through cpu and dram, mid-size messages on the non-DMA path.",
		setup: func(e *env) {
			// mpirun start-up: build the server and bootstrap the full
			// connection mesh, with no program to run.
			var h hw
			launch(&h, e.count(2, 1), func(*mpi.Rank) {})
		},
		rep: npbRep,
	}
}

func npbRep(e *env, _ bool) part {
	perNode, scale, iters := 2, npbScale, 20
	if e.tiny {
		perNode, scale, iters = 1, 0.02, 4
	}
	p := part{e2e: values{}, layers: values{}}
	var h hw
	var elapsed sim.Duration
	var msgs, bytes, dram int64
	for _, name := range npbKernels {
		kernel := npb.Kernels[name]
		j := launch(&h, perNode, func(rk *mpi.Rank) { kernel(rk, scale) })
		p.attempted += int64(j.ranks)
		if !j.done {
			p.failed += int64(j.ranks)
			p.bad = append(p.bad, fmt.Sprintf("npb-mpi: %s did not finish within %v simulated", name, sim.Duration(npbLimit)))
		}
		p.layers["npb."+name+"_ms"] = j.elapsed.Seconds() * 1e3
		elapsed += j.elapsed
		msgs, bytes, dram = msgs+j.msgs, bytes+j.bytes, dram+j.dramBytes
	}
	p.simPs = int64(elapsed)
	p.layers["sim_exec_ms"] = elapsed.Seconds() * 1e3
	p.layers["sim_mem_bw_gbs"] = ratio(float64(dram), elapsed.Seconds()) / 1e9
	p.e2e["sim_throughput_gbps"] = 8 * p.layers["sim_mem_bw_gbs"]
	p.e2e["sim_serial_ops_per_s"] = ratio(float64(len(npbKernels)), elapsed.Seconds())

	// Allreduce latency of a 1KB block, timed on rank 0 back to back as the
	// OSU test does.
	var lat1k stats.Histogram
	j := launch(&h, perNode, func(rk *mpi.Rank) {
		for i := 0; i < iters; i++ {
			t0 := rk.P.Now()
			rk.Allreduce(1 << 10)
			if rk.ID == 0 {
				lat1k.ObserveDuration(rk.P.Now().Sub(t0))
			}
		}
	})
	p.attempted += int64(j.ranks)
	if !j.done {
		p.failed += int64(j.ranks)
		p.bad = append(p.bad, "npb-mpi: the Allreduce loop did not finish")
	}
	p.layers["mpi.allreduce_1k_us"] = lat1k.Median() / 1e3
	msgs, bytes = msgs+j.msgs, bytes+j.bytes
	p.layers["mpi.msgs_sent"] = float64(msgs)
	p.layers["mpi.bytes_sent"] = float64(bytes)

	p.ops = float64(msgs)
	p.layers.merge(h.layers(p.ops))
	p.digest = fmt.Sprintf("%v %v", p.e2e, p.layers)
	return p
}
