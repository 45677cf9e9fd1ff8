// wordcount runs a real (not synthetic) distributed word count across the
// MCN nodes of a server using the bundled MapReduce framework: the driver
// rank partitions a corpus, MCN DIMMs map near their memory, the shuffle
// crosses the memory-channel network, and reducers aggregate. This is the
// Hadoop/Spark-style usage the paper's introduction motivates, with actual
// data moving through the SRAM rings.
package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/mcn-arch/mcn"
)

var corpus = strings.Repeat(
	"the memory channel network turns every buffered dimm into a node "+
		"the host and the dimm speak ethernet over the memory channel "+
		"near memory processing without changing the application ", 64)

func main() {
	k := mcn.NewKernel()
	const dimms = 3
	s := mcn.NewMcnServer(k, dimms, mcn.MCN3.Options())
	eps := s.Endpoints() // rank 0 = host driver, ranks 1..3 = MCN workers

	// Split the corpus into one map task per MCN DIMM.
	words := strings.Fields(corpus)
	shard := (len(words) + dimms - 1) / dimms
	var input []string
	for i := 0; i < dimms; i++ {
		lo, hi := i*shard, (i+1)*shard
		if hi > len(words) {
			hi = len(words)
		}
		input = append(input, strings.Join(words[lo:hi], " "))
	}

	job := mcn.MapReduceJob{
		Input: input,
		Map: func(split string, emit func(k, v string)) {
			for _, w := range strings.Fields(split) {
				emit(w, "1")
			}
		},
		Reduce: func(k string, vs []string) string {
			return strconv.Itoa(len(vs))
		},
	}

	var result map[string]string
	w := mcn.LaunchMPI(k, eps, 7000, func(r *mcn.Rank) {
		if out := mcn.RunMapReduce(r, job); r.ID == 0 {
			result = out
		}
	})
	for i := 0; i < 1000 && !w.Done(); i++ {
		k.RunFor(10 * mcn.Millisecond)
	}
	if !w.Done() {
		panic("wordcount did not finish")
	}

	type kv struct {
		w string
		n int
	}
	var top []kv
	for word, cnt := range result {
		n, _ := strconv.Atoi(cnt)
		top = append(top, kv{word, n})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].n != top[j].n {
			return top[i].n > top[j].n
		}
		return top[i].w < top[j].w
	})
	fmt.Printf("mapreduce wordcount over %d MCN DIMMs finished in %v\n", dimms, w.Elapsed())
	fmt.Println("top words:")
	for _, e := range top[:5] {
		fmt.Printf("  %-10s %d\n", e.w, e.n)
	}
	fmt.Printf("packets delivered up the host stack (F1): %d; DIMM RX IRQs: %d\n",
		s.Host.Driver.DeliveredHost,
		s.Mcns[0].Dimm.RxIRQs+s.Mcns[1].Dimm.RxIRQs+s.Mcns[2].Dimm.RxIRQs)
}
