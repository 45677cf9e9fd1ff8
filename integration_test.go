// Integration tests over the public API: each test stands up a whole
// system (server, cluster, or prototype) and exercises an end-to-end
// behavior the paper claims.
package mcn_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 4, mcn.MCN5.Options())
	host := s.Endpoints()[0]
	dimm := s.McnEndpoints()[0]

	rtts := mcn.PingSweep(k, host, dimm.IP, []int{16, 1024}, 3)
	const total = 1 << 20
	var got int
	k.Go("server", func(p *mcn.Proc) {
		l, err := dimm.Node.Stack.Listen(5001)
		if err != nil {
			panic(err)
		}
		c, _ := l.Accept(p)
		got = c.RecvN(p, total)
	})
	k.Go("client", func(p *mcn.Proc) {
		c, err := host.Node.Stack.Connect(p, dimm.IP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, total)
	})
	k.RunFor(2 * mcn.Second)

	if rtts[16] == 0 || rtts[1024] <= rtts[16] {
		t.Fatalf("ping sweep wrong: %v", rtts)
	}
	if got != total {
		t.Fatalf("stream moved %d bytes", got)
	}
}

func TestApplicationTransparency(t *testing.T) {
	// The paper's core claim, end to end through the public API: one MPI
	// program, bit-identical results on a 10GbE cluster and on an MCN
	// server.
	prog := func(results *[]string) mcn.Program {
		return func(r *mcn.Rank) {
			if r.ID == 0 {
				for i := 1; i < r.W.Size(); i++ {
					*results = append(*results, string(r.RecvData(i)))
				}
			} else {
				r.SendData(0, []byte("rank-"+strconv.Itoa(r.ID)))
			}
		}
	}

	var ethResults []string
	k1 := mcn.NewKernel()
	c := mcn.NewEthCluster(k1, 3)
	w1 := mcn.LaunchMPI(k1, c.Endpoints(), 7000, prog(&ethResults))
	k1.RunFor(30 * mcn.Second)
	if !w1.Done() {
		t.Fatal("cluster job unfinished")
	}

	var mcnResults []string
	k2 := mcn.NewKernel()
	s := mcn.NewMcnServer(k2, 2, mcn.MCN0.Options())
	w2 := mcn.LaunchMPI(k2, s.Endpoints(), 7000, prog(&mcnResults))
	for i := 0; i < 300 && !w2.Done(); i++ {
		k2.RunFor(100 * mcn.Millisecond)
	}
	if !w2.Done() {
		t.Fatal("MCN job unfinished")
	}

	if strings.Join(ethResults, ",") != strings.Join(mcnResults, ",") {
		t.Fatalf("results diverge: %v vs %v", ethResults, mcnResults)
	}
}

func TestMapReduceOnPublicAPI(t *testing.T) {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 2, mcn.MCN3.Options())
	job := mcn.MapReduceJob{
		Input: []string{"1 2 3", "4 5", "6"},
		Map: func(split string, emit func(k, v string)) {
			for _, f := range strings.Fields(split) {
				n, _ := strconv.Atoi(f)
				emit("sum-of-squares", strconv.Itoa(n*n))
			}
		},
		Reduce: func(key string, vs []string) string {
			sum := 0
			for _, v := range vs {
				n, _ := strconv.Atoi(v)
				sum += n
			}
			return strconv.Itoa(sum)
		},
	}
	var out map[string]string
	w := mcn.LaunchMPI(k, s.Endpoints(), 7000, func(r *mcn.Rank) {
		if res := mcn.RunMapReduce(r, job); r.ID == 0 {
			out = res
		}
	})
	for i := 0; i < 300 && !w.Done(); i++ {
		k.RunFor(100 * mcn.Millisecond)
	}
	if !w.Done() {
		t.Fatal("job unfinished")
	}
	if out["sum-of-squares"] != "91" { // 1+4+9+16+25+36
		t.Fatalf("got %v", out)
	}
}

func TestKVAndFastPathOnPublicAPI(t *testing.T) {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 1, mcn.MCN1.Options())
	srv := mcn.NewKVServer(k, s.McnEndpoints()[0], 11211)
	// The fast path: the same host/DIMM pair on the mcnt transport.
	fab := mcn.AttachMcnt(k, s.Host, mcn.DefaultMcntParams())
	host, dimm := s.Endpoints()[0], s.McnEndpoints()[0]
	host.Transport, dimm.Transport = fab.TransportFor(host.Node), fab.TransportFor(dimm.Node)

	k.Go("fast-echo", func(p *mcn.Proc) {
		l, err := dimm.ListenConn(7000)
		if err != nil {
			panic(err)
		}
		c, err := l.AcceptConn(p)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 64)
		for {
			n, ok := c.Recv(p, buf)
			if !ok {
				return
			}
			c.Send(p, buf[:n])
		}
	})
	var kvOK, fastOK bool
	k.Go("client", func(p *mcn.Proc) {
		c, err := mcn.DialKV(p, s.Endpoints()[0], s.McnEndpoints()[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		c.Set(p, "k", []byte("v"))
		got, ok, _ := c.Get(p, "k")
		kvOK = ok && bytes.Equal(got, []byte("v"))

		fc, err := host.DialConn(p, dimm.IP, 7000)
		if err != nil {
			panic(err)
		}
		fc.Send(p, []byte("zoom"))
		echo := make([]byte, 4)
		for n := 0; n < len(echo); {
			m, ok := fc.Recv(p, echo[n:])
			if !ok {
				break
			}
			n += m
		}
		fastOK = string(echo) == "zoom"
	})
	k.RunFor(5 * mcn.Second)
	if !kvOK || !fastOK {
		t.Fatalf("kv=%v fast=%v", kvOK, fastOK)
	}
	if srv.Sets != 1 || srv.Gets != 1 {
		t.Fatalf("server stats %d/%d", srv.Sets, srv.Gets)
	}
}

func TestMcntOnPublicAPI(t *testing.T) {
	// The transport is application-transparent through the facade: the
	// same MPI program, bit-identical results with the memory-channel
	// hops on TCP and on mcnt — only the endpoints' Transport changes.
	prog := func(results *[]string) mcn.Program {
		return func(r *mcn.Rank) {
			if r.ID == 0 {
				for i := 1; i < r.W.Size(); i++ {
					*results = append(*results, string(r.RecvData(i)))
				}
			} else {
				r.SendData(0, []byte("rank-"+strconv.Itoa(r.ID)))
			}
		}
	}

	run := func(useMcnt bool) []string {
		var results []string
		k := mcn.NewKernel()
		s := mcn.NewMcnServer(k, 2, mcn.MCN5.Options())
		eps := s.Endpoints()
		if useMcnt {
			fab := mcn.AttachMcnt(k, s.Host, mcn.DefaultMcntParams())
			for i := range eps {
				eps[i].Transport = fab.TransportFor(eps[i].Node)
			}
		}
		w := mcn.LaunchMPI(k, eps, 7000, prog(&results))
		for i := 0; i < 300 && !w.Done(); i++ {
			k.RunFor(100 * mcn.Millisecond)
		}
		if !w.Done() {
			t.Fatalf("MPI job unfinished (mcnt=%v)", useMcnt)
		}
		return results
	}

	tcp, mcnt := run(false), run(true)
	if strings.Join(tcp, ",") != strings.Join(mcnt, ",") {
		t.Fatalf("results diverge across transports: %v vs %v", tcp, mcnt)
	}

	// KV over mcnt through the facade: the codec is identical over either
	// transport, so a client on the mcnt fabric serves a kvstore shard
	// without any kvstore-side change.
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 1, mcn.MCN5.Options())
	fab := mcn.AttachMcnt(k, s.Host, mcn.DefaultMcntParams())
	sep := s.McnEndpoints()[0]
	sep.Transport = fab.TransportFor(sep.Node)
	mcn.NewKVServer(k, sep, 11211)
	cep := s.Endpoints()[0]
	cep.Transport = fab.TransportFor(cep.Node)
	var kvOK bool
	k.Go("client", func(p *mcn.Proc) {
		c, err := mcn.DialKV(p, cep, sep.IP, 11211)
		if err != nil {
			panic(err)
		}
		c.Set(p, "k", []byte("v"))
		got, ok, _ := c.Get(p, "k")
		kvOK = ok && bytes.Equal(got, []byte("v"))
	})
	k.RunFor(5 * mcn.Second)
	if !kvOK {
		t.Fatal("kv get/set over mcnt failed")
	}
	if fab.Streams() == 0 {
		t.Fatal("kv traffic did not ride the mcnt fabric")
	}
	if drift := fab.CheckAccounting(); len(drift) != 0 {
		t.Fatalf("credit accounting drift after kv run: %v", drift)
	}
}

func TestTracerOnPublicAPI(t *testing.T) {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 1, mcn.MCN0.Options())
	tap := mcn.NewTracer(64)
	s.Mcns[0].Stack.Tap = tap
	k.Go("ping", func(p *mcn.Proc) {
		s.Host.Stack.Ping(p, s.Mcns[0].IP, 32, mcn.Second)
	})
	k.RunFor(50 * mcn.Millisecond)
	if !strings.Contains(tap.Dump(), "ICMP echo request") {
		t.Fatalf("capture missing ping:\n%s", tap.Dump())
	}
}

func TestOptLevelLadderOnPublicAPI(t *testing.T) {
	// Bandwidth must not regress as optimizations stack (allowing small
	// noise), measured through the public API only.
	bw := func(l mcn.OptLevel) float64 {
		k := mcn.NewKernel()
		s := mcn.NewMcnServer(k, 4, l.Options())
		res := mcn.Iperf(k, s.Endpoints()[0], s.McnEndpoints()[:2], 5201,
			2*mcn.Millisecond, 8*mcn.Millisecond)
		k.RunFor(20 * mcn.Millisecond)
		return res.GoodputBps
	}
	b0, b3, b5 := bw(mcn.MCN0), bw(mcn.MCN3), bw(mcn.MCN5)
	if !(b3 > b0*1.2) {
		t.Errorf("mcn3 (%.2g) should clearly beat mcn0 (%.2g)", b3, b0)
	}
	if !(b5 > b0) {
		t.Errorf("mcn5 (%.2g) should beat mcn0 (%.2g)", b5, b0)
	}
}

func TestObservabilityOnPublicAPI(t *testing.T) {
	// The facade exposes the observability plane: a traced serving run
	// produces spans whose phases telescope to end-to-end latency, a
	// metrics snapshot, and the Perfetto artifact.
	r := mcn.ServeTraced(1, mcn.Topo{Fabric: "mcn5"}, 100e3, 0, 4)
	if r.Result.N == 0 || r.Tracer.Finished == 0 {
		t.Fatalf("traced run: n=%d finished=%d", r.Result.N, r.Tracer.Finished)
	}
	for _, sp := range r.Tracer.Spans() {
		var sum int64
		for _, d := range sp.Breakdown() {
			sum += int64(d)
		}
		if want := int64(sp.Done.Sub(sp.Arrival)); sum != want {
			t.Fatalf("span %d: phases sum to %d, e2e %d", sp.ID, sum, want)
		}
	}
	var trace bytes.Buffer
	if err := r.Tracer.WritePerfetto(&trace); err != nil || trace.Len() == 0 {
		t.Fatalf("perfetto export: err=%v len=%d", err, trace.Len())
	}
	var metrics bytes.Buffer
	if err := r.Snapshot.WriteJSON(&metrics); err != nil || metrics.Len() == 0 {
		t.Fatalf("metrics export: err=%v len=%d", err, metrics.Len())
	}

	// Hand-built tracer + registry through the facade constructors.
	tr := mcn.NewSpanTracer(3, 1, 16)
	if s := tr.Sampler("x"); !s.Next() {
		t.Fatal("sampleN 1 must always sample")
	}
	reg := mcn.NewMetricsRegistry()
	reg.Counter("x").Add(2)
	if v, ok := reg.Snapshot(0).Value("x"); !ok || v != 2 {
		t.Fatalf("registry snapshot: %d %v", v, ok)
	}

	// The faulted variant stays deterministic through the facade too.
	f := mcn.ServeTracedFaults(3, mcn.Topo{Fabric: "mcn5", Batch: true}, 100e3, 8)
	if f.Result.N == 0 {
		t.Fatal("faulted traced run completed nothing")
	}
}
