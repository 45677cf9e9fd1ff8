package main

import (
	"runtime"
	"time"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/memmap"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/sram"
)

// A probe times one layer's public entry point in isolation: batch(n) does
// n operations. The result is host ns/op (median of probeBatches batches of
// about probeBatch each) and heap allocations per op.
const (
	probeBatches = 5
	probeBatch   = 60 * time.Millisecond
)

type probe struct {
	// ns and allocs name the metrics the probe feeds ("" = not reported).
	ns, allocs string
	// perOp scales one batch operation to the metric's unit (a 9000-byte
	// copy reported per KB has perOp 9000/1024).
	perOp float64
	batch func(n int)
}

// sink defeats dead-code elimination of the pure-function probes.
var sink uint64

var probes = []probe{
	{ns: "sim.push_pop_ns", allocs: "sim.probe_allocs_per_op", batch: func(n int) {
		// A steady population of 64 callbacks, each re-arming itself when
		// it fires: the queue depth the serving runs keep.
		k := sim.NewKernel()
		fired := 0
		var fn func()
		fn = func() {
			if fired++; fired < n {
				k.After(sim.Duration(1+fired%977)*sim.Nanosecond, fn)
			}
		}
		for i := 0; i < 64; i++ {
			k.After(sim.Duration(i)*sim.Nanosecond, fn)
		}
		k.Run()
	}},
	{ns: "sim.proc_switch_ns", batch: func(n int) {
		// Two processes hand a token back and forth: two goroutine
		// switches per round trip.
		k := sim.NewKernel()
		ping, pong := sim.NewQueue[int](k, 1), sim.NewQueue[int](k, 1)
		k.Go("a", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				ping.Put(p, i)
				pong.Get(p)
			}
		})
		k.Go("b", func(p *sim.Proc) {
			for {
				v, ok := ping.Get(p)
				if !ok {
					return
				}
				pong.Put(p, v)
			}
		})
		k.Run()
		k.Shutdown()
	}},
	{ns: "sim.timer_reset_ns", batch: func(n int) {
		k := sim.NewKernel()
		t := k.NewTimer(func() { sink++ })
		for i := 0; i < n; i++ {
			t.Reset(sim.Duration(1+i%512) * sim.Microsecond)
		}
		t.Stop()
	}},
	{ns: "cpu.softirq_dispatch_ns", batch: func(n int) {
		k := sim.NewKernel()
		c := cpu.New(k, "probe", 4, sim.GHz(3.4), cpu.DefaultOSCosts())
		for i := 0; i < n; i++ {
			c.ScheduleTasklet(func(*sim.Proc) { sink++ })
		}
		k.Run()
		k.Shutdown()
	}},
	{ns: "dram.access_ns", batch: func(n int) {
		k := sim.NewKernel()
		ch := dram.NewChannel(k, dram.DDR4_3200())
		k.Go("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ch.Access(p, uint64(i)*4096, i&1 == 1, 4096)
			}
		})
		k.Run()
	}},
	ringProbe("sram.ring_push_pop_ns_1k5", "", 1500),
	ringProbe("sram.ring_push_pop_ns_9k", "sram.probe_allocs_per_op", 9000),
	{ns: "memmap.interleaved_copy_ns_per_kb", perOp: 9000.0 / 1024, batch: func(n int) {
		src, dst := make([]byte, 9000), make([]byte, 48<<10)
		iv := memmap.Interleave{Channels: 2}
		for i := 0; i < n; i++ {
			sink += uint64(len(memmap.InterleavedCopy(iv, 0, dst, (i%4)*9000, src)))
		}
	}},
	{ns: "ethdev.nic_echo_ns", batch: func(n int) {
		// One echo crosses NIC, link, switch, link, NIC and back.
		k := sim.NewKernel()
		c := cluster.NewEthCluster(k, 2, node.HostConfig(""))
		eps := c.Endpoints()
		k.Go("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				eps[0].Node.Stack.Ping(p, eps[1].IP, 64, sim.Second)
			}
		})
		k.RunFor(sim.Duration(n) * sim.Millisecond)
		k.Shutdown()
	}},
	{ns: "netstack.checksum_ns_per_kb", perOp: 9000.0 / 1024, batch: func(n int) {
		buf := make([]byte, 9000)
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			sink += uint64(netstack.Checksum(buf))
		}
	}},
	{ns: "netstack.tcp_loopback_ns_per_seg", batch: func(n int) {
		k := sim.NewKernel()
		st := cluster.NewScaleUp(k, 4).Stack
		seg := make([]byte, 1448)
		k.Go("server", func(p *sim.Proc) {
			l, err := st.Listen(9)
			if err != nil {
				panic(err)
			}
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			c.RecvN(p, n*len(seg))
		})
		k.Go("client", func(p *sim.Proc) {
			c, err := st.Connect(p, netstack.Loopback, 9)
			if err != nil {
				panic(err)
			}
			for i := 0; i < n; i++ {
				if err := c.Send(p, seg); err != nil {
					return
				}
			}
		})
		k.RunFor(sim.Duration(n) * sim.Millisecond)
		k.Shutdown()
	}},
	{allocs: "netstack.udp_loopback_allocs", batch: func(n int) {
		k := sim.NewKernel()
		st := cluster.NewScaleUp(k, 4).Stack
		rx, err := st.UDPBind(9)
		if err != nil {
			panic(err)
		}
		tx, err := st.UDPBind(0)
		if err != nil {
			panic(err)
		}
		msg := make([]byte, 512)
		k.Go("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if err := tx.SendTo(p, netstack.Loopback, 9, msg); err != nil {
					panic(err)
				}
				rx.Recv(p)
			}
		})
		k.RunFor(sim.Duration(n) * sim.Millisecond)
		k.Shutdown()
	}},
	{ns: "netstack.frame_pool_ns", batch: func(n int) {
		k := sim.NewKernel()
		st := cluster.NewScaleUp(k, 1).Stack
		for i := 0; i < n; i++ {
			st.RecycleFrameBuf(st.GetFrameBuf(1500))
		}
		k.Shutdown()
	}},
	{ns: "mcnt.header_codec_ns", batch: func(n int) {
		frame := make([]byte, mcnt.HeaderBytes+1024)
		for i := 0; i < n; i++ {
			mcnt.PutHeader(frame, mcnt.Header{Kind: mcnt.KindData, Stream: 49152, Seq: uint32(i + 1), Ack: uint32(i), Len: 1024})
			h, payload, ok := mcnt.ParseFrame(frame)
			if !ok {
				panic("mcnt probe: frame rejected")
			}
			sink += uint64(h.Seq) + uint64(len(payload))
		}
	}},
	{ns: "kvstore.codec_ns", allocs: "kvstore.codec_allocs_per_op", batch: func(n int) {
		val := make([]byte, 128)
		var buf []byte
		for i := 0; i < n; i++ {
			buf = kvstore.AppendRequest(buf[:0], kvstore.OpSet, "key-00001234", val)
			_, kl, vl, _ := kvstore.ParseReqHeader(buf)
			buf = kvstore.AppendResponse(buf[:0], kvstore.StatusOK, val)
			_, rl, _ := kvstore.ParseRespHeader(buf)
			sink += uint64(kl + vl + rl)
		}
	}},
	{ns: "nmop.codec_ns", batch: func(n int) {
		keys := []string{"key-00000001", "key-00000002", "key-00000003", "key-00000004", "key-00000005", "key-00000006", "key-00000007", "key-00000008"}
		var buf []byte
		for i := 0; i < n; i++ {
			buf = nmop.AppendMultiGetPayload(buf[:0], keys)
			req, err := nmop.ParseOpRequest(nmop.KindMultiGet, "", buf)
			if err != nil {
				panic(err)
			}
			sink += uint64(len(req.Keys))
		}
	}},
	{ns: "serve.router_owners_ns", batch: func(n int) {
		r := serve.NewRouter(kvShards, 0)
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = serve.Workload{}.Key(i)
		}
		for i := 0; i < n; i++ {
			sink += uint64(len(r.Owners(keys[i%len(keys)], kvShards)))
		}
	}},
}

func ringProbe(ns, allocs string, size int) probe {
	return probe{ns: ns, allocs: allocs, batch: func(n int) {
		// Push then pop into a recycled buffer, as the drivers do.
		r := sram.NewRing(sram.DefaultSize / 2)
		pkt, out := make([]byte, size), make([]byte, size)
		reuse := func(int) []byte { return out }
		for i := 0; i < n; i++ {
			if !r.Push(pkt) {
				panic("sram probe: ring full")
			}
			sink += uint64(len(r.PopWith(reuse)))
		}
	}}
}

// runProbes times every probe and returns the probe metrics.
func runProbes(e *env, parent int) values {
	out := values{}
	root := e.rec.begin(parent, "probes")
	defer func() { e.rec.end(root, 0) }()
	target := probeBatch
	if e.tiny {
		target = 2 * time.Millisecond
	}
	for _, pr := range probes {
		name := pr.ns
		if name == "" {
			name = pr.allocs
		}
		// Size a batch to about target, from a short trial.
		n := 64
		for {
			t0 := time.Now()
			pr.batch(n)
			if d := time.Since(t0); d >= target/8 {
				n = int(float64(n) * float64(target) / float64(d))
				break
			}
			n *= 4
		}
		if n < 1 {
			n = 1
		}
		var ns []float64
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for b := 0; b < probeBatches; b++ {
			id := e.rec.begin(root, name)
			t0 := time.Now()
			pr.batch(n)
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
			e.rec.end(id, 0)
		}
		runtime.ReadMemStats(&m1)
		perOp := pr.perOp
		if perOp == 0 {
			perOp = 1
		}
		if pr.ns != "" {
			out[pr.ns] = median(ns) / perOp
		}
		if pr.allocs != "" {
			out[pr.allocs] = float64(m1.Mallocs-m0.Mallocs) / float64(n*probeBatches)
		}
	}
	return out
}
