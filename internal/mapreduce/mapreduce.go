// Package mapreduce is a small distributed data-processing framework in
// the Hadoop/Spark mold, running over the simulated network with real data
// movement. The paper's thesis is that such frameworks run unchanged
// across the host and the MCN DIMMs; this package demonstrates it: the
// driver partitions input, workers map near their memory, the shuffle
// crosses the memory-channel network (or 10GbE — the framework cannot
// tell), and reducers aggregate.
//
// The execution model is deliberately Hadoop-shaped: a driver rank, map
// tasks over input splits, a hash-partitioned shuffle, and reduce tasks.
package mapreduce

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"

	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/nmop"
)

// Job describes one MapReduce computation. Map and Reduce run on worker
// ranks; the input lives on the driver and is shipped to the mappers.
type Job struct {
	// Input splits; each becomes one map task.
	Input []string
	// Map emits key/value pairs for one split.
	Map func(split string, emit func(k, v string))
	// Reduce folds all values of one key into a result.
	Reduce func(k string, vs []string) string
	// Combine, when set, is the pre-shuffle combiner (Hadoop's contract:
	// an associative fold of one key's values into a partial value that
	// Reduce can consume). On MCN topologies the map workers are
	// DIMM-resident, so the combine is near-memory compute that shrinks
	// what crosses the memory-channel shuffle.
	Combine func(k string, vs []string) string
	// CombineMode gates the combiner: ModeDimm forces it, ModeHost skips
	// it (raw values ship and Reduce computes the same result — the
	// fallback the combine test diffs against), and ModeAuto folds a
	// partition only when the fold actually shrinks it. Unlike the serve
	// tier's modeled costs this decision is local and exact: the
	// duplicate rate is known before anything ships.
	CombineMode nmop.Mode
}

// ShuffleBytesKey is the reserved key under which a combiner-carrying
// job reports its total shuffle payload bytes in the driver's result
// map. It rides the existing worker→driver result message as one extra
// KV, so the wire format is unchanged for jobs without a combiner.
const ShuffleBytesKey = "__mcn_shuffle_bytes__"

// KV is one emitted pair.
type KV struct{ K, V string }

// Run executes the job on an MPI world: rank 0 is the driver, all other
// ranks are workers (mappers and reducers). The merged result is returned
// on rank 0; workers return nil. Run must be called by every rank.
func Run(r *mpi.Rank, job Job) map[string]string {
	workers := r.W.Size() - 1
	if workers < 1 {
		panic("mapreduce: need at least one worker rank")
	}
	if r.ID == 0 {
		return runDriver(r, job, workers)
	}
	runWorker(r, job, workers)
	return nil
}

func runDriver(r *mpi.Rank, job Job, workers int) map[string]string {
	// Assign splits round-robin to the workers.
	assign := make([][]string, workers)
	for i, split := range job.Input {
		w := i % workers
		assign[w] = append(assign[w], split)
	}
	for w := 0; w < workers; w++ {
		r.SendData(w+1, encodeStrings(assign[w]))
	}
	// Collect reduce output. Workers with a combiner also report their
	// shuffle payload bytes under the reserved key, summed here.
	out := make(map[string]string)
	var shuffle int64
	for w := 0; w < workers; w++ {
		pairs := decodeKVs(r.RecvData(w + 1))
		for _, kv := range pairs {
			if kv.K == ShuffleBytesKey {
				n, _ := strconv.ParseInt(kv.V, 10, 64)
				shuffle += n
				continue
			}
			out[kv.K] = kv.V
		}
	}
	if job.Combine != nil {
		out[ShuffleBytesKey] = strconv.FormatInt(shuffle, 10)
	}
	return out
}

func runWorker(r *mpi.Rank, job Job, workers int) {
	me := r.ID - 1 // worker index
	splits := decodeStrings(r.RecvData(0))

	// Map phase: near-memory computation over the local splits.
	buckets := make([][]KV, workers)
	for _, split := range splits {
		job.Map(split, func(k, v string) {
			b := partition(k, workers)
			buckets[b] = append(buckets[b], KV{k, v})
		})
	}

	// Shuffle: pairwise exchange of partitions, the all-to-all of a
	// MapReduce job. Outgoing partitions pass through the combiner first
	// (when declared and the mode allows), so duplicates fold before
	// they cross the channel.
	mine := buckets[me]
	var shuffleBytes int64
	for off := 1; off < workers; off++ {
		dst := (me+off)%workers + 1
		src := (me-off+workers)%workers + 1
		payload := encodeKVs(combineBucket(job, buckets[(me+off)%workers]))
		shuffleBytes += int64(len(payload))
		got := r.SendrecvData(dst, payload, src)
		mine = append(mine, decodeKVs(got)...)
	}

	// Reduce phase: group by key and fold.
	byKey := make(map[string][]string)
	for _, kv := range mine {
		byKey[kv.K] = append(byKey[kv.K], kv.V)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	results := make([]KV, 0, len(keys))
	for _, k := range keys {
		results = append(results, KV{k, job.Reduce(k, byKey[k])})
	}
	if job.Combine != nil {
		results = append(results, KV{ShuffleBytesKey, strconv.FormatInt(shuffleBytes, 10)})
	}
	r.SendData(0, encodeKVs(results))
}

// combineBucket folds one outgoing partition with the job's combiner.
// Grouping preserves first-appearance key order, so a combined shuffle
// is as deterministic as a raw one.
func combineBucket(job Job, bucket []KV) []KV {
	if job.Combine == nil || job.CombineMode == nmop.ModeHost {
		return bucket
	}
	var order []string
	byKey := make(map[string][]string)
	for _, kv := range bucket {
		if _, ok := byKey[kv.K]; !ok {
			order = append(order, kv.K)
		}
		byKey[kv.K] = append(byKey[kv.K], kv.V)
	}
	if job.CombineMode == nmop.ModeAuto && len(order) >= len(bucket) {
		// Nothing folds: shipping as-is avoids a pointless rewrite pass.
		return bucket
	}
	out := make([]KV, 0, len(order))
	for _, k := range order {
		out = append(out, KV{k, job.Combine(k, byKey[k])})
	}
	return out
}

// partition hashes a key to a reducer (FNV-1a).
func partition(k string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

func encodeStrings(ss []string) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(ss); err != nil {
		panic(fmt.Sprintf("mapreduce: encode: %v", err))
	}
	return b.Bytes()
}

func decodeStrings(data []byte) []string {
	var ss []string
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ss); err != nil {
		panic(fmt.Sprintf("mapreduce: decode: %v", err))
	}
	return ss
}

func encodeKVs(kvs []KV) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(kvs); err != nil {
		panic(fmt.Sprintf("mapreduce: encode: %v", err))
	}
	return b.Bytes()
}

func decodeKVs(data []byte) []KV {
	var kvs []KV
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&kvs); err != nil {
		panic(fmt.Sprintf("mapreduce: decode: %v", err))
	}
	return kvs
}
