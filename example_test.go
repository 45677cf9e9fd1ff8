package mcn_test

import (
	"fmt"

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
