package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

func wordCountJob(input []string) Job {
	return Job{
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
}

func runJob(t *testing.T, eps []cluster.Endpoint, k *sim.Kernel, job Job) map[string]string {
	t.Helper()
	var out map[string]string
	w := mpi.Launch(k, eps, 7200, func(r *mpi.Rank) {
		res := Run(r, job)
		if r.ID == 0 {
			out = res
		}
	})
	// Step until done: running a polling-mode MCN server for fixed long
	// spans burns wall time on idle HR-timer events.
	for i := 0; i < 1200 && !w.Done(); i++ {
		k.RunFor(100 * sim.Millisecond)
	}
	if !w.Done() {
		t.Fatal("mapreduce job did not finish")
	}
	return out
}

func TestWordCountOnMcnServer(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 3, core.MCN3.Options())
	input := []string{
		"the quick brown fox", "the lazy dog", "the fox jumps",
		"dog and fox and dog",
	}
	out := runJob(t, s.Endpoints(), k, wordCountJob(input))
	if out["the"] != "3" || out["fox"] != "3" || out["dog"] != "3" || out["and"] != "2" {
		t.Fatalf("wordcount wrong: %v", out)
	}
	if s.Host.Driver.DeliveredHost == 0 {
		t.Fatal("no traffic crossed the memory-channel network")
	}
	k.Shutdown()
}

func TestSameJobSameResultOnEthCluster(t *testing.T) {
	// Application transparency: identical job, identical answer, on a
	// conventional cluster.
	input := []string{"a b a", "b c", "c c c"}

	k1 := sim.NewKernel()
	s := cluster.NewMcnServer(k1, 2, core.MCN0.Options())
	mcnOut := runJob(t, s.Endpoints(), k1, wordCountJob(input))
	k1.Shutdown()

	k2 := sim.NewKernel()
	c := cluster.NewEthCluster(k2, 3, node.HostConfig(""))
	ethOut := runJob(t, c.Endpoints(), k2, wordCountJob(input))
	k2.Shutdown()

	if len(mcnOut) != len(ethOut) {
		t.Fatalf("results diverge: %v vs %v", mcnOut, ethOut)
	}
	for k, v := range mcnOut {
		if ethOut[k] != v {
			t.Fatalf("key %q: %s (mcn) vs %s (eth)", k, v, ethOut[k])
		}
	}
	if ethOut["c"] != "4" || ethOut["a"] != "2" {
		t.Fatalf("counts wrong: %v", ethOut)
	}
}

func TestInvertedIndex(t *testing.T) {
	// A second job shape: build doc lists per word.
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN3.Options())
	docs := []string{"doc0: alpha beta", "doc1: beta gamma", "doc2: alpha gamma"}
	job := Job{
		Input: docs,
		Map: func(split string, emit func(k, v string)) {
			parts := strings.SplitN(split, ": ", 2)
			for _, w := range strings.Fields(parts[1]) {
				emit(w, parts[0])
			}
		},
		Reduce: func(k string, vs []string) string {
			return strings.Join(vs, ",")
		},
	}
	out := runJob(t, s.Endpoints(), k, job)
	if !strings.Contains(out["alpha"], "doc0") || !strings.Contains(out["alpha"], "doc2") {
		t.Fatalf("index wrong: %v", out)
	}
	k.Shutdown()
}

func TestPartitionCoversAllReducers(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		p := partition(fmt.Sprintf("key-%d", i), 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition out of range: %d", p)
		}
		seen[p] = true
	}
	if len(seen) != 7 {
		t.Fatalf("hash partitioner skipped reducers: %v", seen)
	}
}

// TestCombineShrinksShuffle runs the same summing job with the combiner
// forced on (on-DIMM fold before the shuffle) and forced off (host
// fallback: raw values ship, Reduce computes), and checks the outputs
// are identical while the combined shuffle moves fewer bytes.
func TestCombineShrinksShuffle(t *testing.T) {
	// Few distinct keys, many duplicates: the combiner's best case.
	var input []string
	for i := 0; i < 40; i++ {
		input = append(input, fmt.Sprintf("k%d 1 k%d 1 k%d 1", i%4, (i+1)%4, i%4))
	}
	sumJob := func(mode nmop.Mode) Job {
		sum := func(k string, vs []string) string {
			total := 0
			for _, v := range vs {
				n, _ := strconv.Atoi(v)
				total += n
			}
			return strconv.Itoa(total)
		}
		return Job{
			Input: input,
			Map: func(split string, emit func(k, v string)) {
				f := strings.Fields(split)
				for i := 0; i+1 < len(f); i += 2 {
					emit(f[i], f[i+1])
				}
			},
			// Sum is associative, so the combiner is the reducer.
			Reduce: sum, Combine: sum, CombineMode: mode,
		}
	}
	run := func(mode nmop.Mode) (map[string]string, int64) {
		k := sim.NewKernel()
		defer k.Shutdown()
		s := cluster.NewMcnServer(k, 3, core.MCN3.Options())
		out := runJob(t, s.Endpoints(), k, sumJob(mode))
		bytes, err := strconv.ParseInt(out[ShuffleBytesKey], 10, 64)
		if err != nil {
			t.Fatalf("bad %s value %q: %v", ShuffleBytesKey, out[ShuffleBytesKey], err)
		}
		delete(out, ShuffleBytesKey)
		return out, bytes
	}
	dimmOut, dimmBytes := run(nmop.ModeDimm)
	hostOut, hostBytes := run(nmop.ModeHost)
	if len(dimmOut) != len(hostOut) {
		t.Fatalf("combined and raw outputs diverge: %v vs %v", dimmOut, hostOut)
	}
	for k, v := range hostOut {
		if dimmOut[k] != v {
			t.Fatalf("key %q: combined %s != raw %s", k, dimmOut[k], v)
		}
	}
	if dimmOut["k0"] == "" || dimmOut["k0"] == "0" {
		t.Fatalf("suspicious sums: %v", dimmOut)
	}
	if dimmBytes >= hostBytes {
		t.Fatalf("combine did not shrink the shuffle: dimm=%dB host=%dB", dimmBytes, hostBytes)
	}
	// Auto mode folds these duplicate-heavy partitions too.
	autoOut, autoBytes := run(nmop.ModeAuto)
	if autoBytes != dimmBytes {
		t.Errorf("auto shuffle %dB != forced combine %dB", autoBytes, dimmBytes)
	}
	if autoOut["k0"] != dimmOut["k0"] {
		t.Errorf("auto output diverges: %v vs %v", autoOut, dimmOut)
	}
}

func TestBigShuffleOnMcn(t *testing.T) {
	// A shuffle-heavy job: values are padded so real megabytes cross the
	// rings.
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 3, core.MCN4.Options())
	pad := strings.Repeat("x", 1000)
	var input []string
	for i := 0; i < 30; i++ {
		input = append(input, fmt.Sprintf("k%d %s", i%10, pad))
	}
	job := Job{
		Input: input,
		Map: func(split string, emit func(k, v string)) {
			f := strings.Fields(split)
			emit(f[0], f[1])
		},
		Reduce: func(k string, vs []string) string { return strconv.Itoa(len(vs)) },
	}
	out := runJob(t, s.Endpoints(), k, job)
	total := 0
	for _, v := range out {
		n, _ := strconv.Atoi(v)
		total += n
	}
	if total != 30 {
		t.Fatalf("lost records in the shuffle: %d/30", total)
	}
	k.Shutdown()
}
