package mcn_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn"
)

// ExampleNewMcnServer builds an MCN server and pings a DIMM from the host
// over the memory channel.
func ExampleNewMcnServer() {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 2, mcn.MCN1.Options())
	host := s.Endpoints()[0]
	dimm := s.McnEndpoints()[0]

	var ok bool
	k.Go("ping", func(p *mcn.Proc) {
		_, ok = host.Node.Stack.Ping(p, dimm.IP, 56, mcn.Second)
	})
	k.RunFor(10 * mcn.Millisecond)
	fmt.Println("ping over the memory channel:", ok)
	// Output: ping over the memory channel: true
}

// ExampleLaunchMPI runs a two-rank MPI program spanning the host and an
// MCN DIMM — the framework cannot tell the difference.
func ExampleLaunchMPI() {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 1, mcn.MCN3.Options())
	w := mcn.LaunchMPI(k, s.Endpoints(), 7000, func(r *mcn.Rank) {
		if r.ID == 0 {
			fmt.Printf("rank 0 heard: %s\n", r.RecvData(1))
		} else {
			r.SendData(0, []byte("hello from the DIMM"))
		}
	})
	for i := 0; i < 100 && !w.Done(); i++ {
		k.RunFor(10 * mcn.Millisecond)
	}
	// Output: rank 0 heard: hello from the DIMM
}

// ExampleOptLevel_Options expands a Table I optimization level into its
// mechanism set.
func ExampleOptLevel_Options() {
	o := mcn.MCN3.Options()
	fmt.Printf("%v: interrupt=%v checksum-bypass=%v mtu=%d tso=%v dma=%v\n",
		mcn.MCN3, o.DimmInterrupt, o.ChecksumBypass, o.MTU, o.TSO, o.DMA)
	// Output: mcn3: interrupt=true checksum-bypass=true mtu=9000 tso=false dma=false
}

// ExampleRunMapReduce counts words across MCN DIMMs with the bundled
// MapReduce framework.
func ExampleRunMapReduce() {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 2, mcn.MCN3.Options())
	job := mcn.MapReduceJob{
		Input: []string{"near memory", "memory channel network", "memory"},
		Map: func(split string, emit func(k, v string)) {
			for _, w := range splitWords(split) {
				emit(w, "1")
			}
		},
		Reduce: func(k string, vs []string) string { return fmt.Sprint(len(vs)) },
	}
	var out map[string]string
	w := mcn.LaunchMPI(k, s.Endpoints(), 7000, func(r *mcn.Rank) {
		if res := mcn.RunMapReduce(r, job); r.ID == 0 {
			out = res
		}
	})
	for i := 0; i < 100 && !w.Done(); i++ {
		k.RunFor(10 * mcn.Millisecond)
	}
	fmt.Println("memory:", out["memory"])
	// Output: memory: 3
}

func splitWords(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}

// ExampleIperf is the README's quickstart: iperf from four DIMMs to their
// host, over ordinary sockets on the memory channel.
func ExampleIperf() {
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 8, mcn.MCN5.Options()) // host + 8 MCN DIMMs

	// Ordinary sockets, over the memory channel:
	res := mcn.Iperf(k, s.Endpoints()[0], s.McnEndpoints()[:4], 5201,
		6*mcn.Millisecond, 18*mcn.Millisecond)
	k.RunFor(40 * mcn.Millisecond)
	fmt.Printf("aggregate: %.1f Gbps\n", res.GoodputBps*8/1e9)
	// Output: aggregate: 83.9 Gbps
}

// ExampleNewFaultInjector is the README's fault plan: a TCP stream from a
// DIMM on one server of a rack to a DIMM on the other, through both
// hosts' NICs, under link loss and corruption, lost DIMM frames and
// interrupts, and a DIMM outage.
func ExampleNewFaultInjector() {
	k := mcn.NewKernel()
	r := mcn.NewMcnRack(k, 2, 2, mcn.MCN1.Options())
	in := mcn.NewFaultInjector(mcn.FaultPlan{
		Seed: 42, LinkDropProb: 0.015, LinkCorruptProb: 0.01, BurstLen: 2,
		McnLossProb: 0.01, AlertSuppressProb: 0.05,
		DimmFlaps: []mcn.DimmFlap{{Name: "host0/mcn1",
			Start: mcn.Time(2 * mcn.Millisecond), End: mcn.Time(4 * mcn.Millisecond)}},
	})
	r.InjectFaults(in)

	src, dst := r.Servers[0].Mcns[0], r.Servers[1].Mcns[0]
	const size = 1 << 20
	var got int
	k.Go("server", func(p *mcn.Proc) {
		l, _ := dst.Stack.Listen(5001)
		c, _ := l.Accept(p)
		got = c.RecvN(p, size)
	})
	k.Go("client", func(p *mcn.Proc) {
		if c, err := src.Stack.Connect(p, dst.IP, 5001); err == nil {
			c.SendN(p, size)
			c.Close(p)
		}
	})
	k.RunFor(mcn.Second)
	fmt.Printf("delivered %d of %d bytes\n", got, size)
	fmt.Print(in.Summary())
	// Output:
	// delivered 1048576 of 1048576 bytes
	// fault injection (seed 42):
	//   host0/mcn0/alertn: drop=0 burst=0 flap=0 corrupt=0 suppressed=48
	//   host0/mcn0/chan: drop=20 burst=0 flap=0 corrupt=0 suppressed=0
	//   host0/mcn0/rxirq: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   host0/mcn1/alertn: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   host0/mcn1/chan: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   host0/mcn1/rxirq: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   host1/mcn0/alertn: drop=0 burst=0 flap=0 corrupt=0 suppressed=38
	//   host1/mcn0/chan: drop=17 burst=0 flap=0 corrupt=0 suppressed=0
	//   host1/mcn0/rxirq: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   host1/mcn1/alertn: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   host1/mcn1/chan: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   host1/mcn1/rxirq: drop=0 burst=0 flap=0 corrupt=0 suppressed=0
	//   link/host0: drop=35 burst=35 flap=0 corrupt=23 suppressed=0
	//   link/host1: drop=23 burst=23 flap=0 corrupt=18 suppressed=0
}

// TestReadmeShowsExamples checks that README.md shows the bodies of
// ExampleIperf and ExampleNewFaultInjector verbatim, each as one Go block,
// so the API the README documents compiles, runs and prints what it says.
func TestReadmeShowsExamples(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ExampleIperf", "ExampleNewFaultInjector"} {
		_, rest, _ := strings.Cut(string(src), "\nfunc "+name+"() {\n")
		body, _, _ := strings.Cut(rest, "\n}\n")
		lines := strings.Split(body, "\n")
		for i, l := range lines {
			lines[i] = strings.TrimPrefix(l, "\t")
		}
		if !strings.Contains(string(readme), "```go\n"+strings.Join(lines, "\n")+"\n```\n") {
			t.Errorf("README.md does not show the body of %s verbatim", name)
		}
	}
}
