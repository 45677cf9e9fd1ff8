package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), so the
// spreads printed here are the ones the acceptance rule computes.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// iqrFrac is the interquartile distance as a share of the median.
func iqrFrac(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// Rusage would read as 0 and trip the "> 0" check on the metrics.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// timed runs fn from a collected heap and returns its wall and CPU seconds.
func timed(fn func()) (wall, cpu float64) {
	runtime.GC()
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

// calibrate measures a fixed xorshift spin (best of five) and returns
// spins/sec: pure ALU work that follows the frequency scaling the simulator
// sees, so machine drift between two sets of runs is visible. It is
// exp.wallCalibrate's loop, which the benchmark may not import.
func calibrate() float64 {
	const spins = 1 << 22
	var sink uint64
	best := time.Duration(math.MaxInt64)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		s := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < spins; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
		}
		sink += s
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if sink == 0 {
		return 0
	}
	return spins / best.Seconds()
}

// span is one interval of the benchmark's own work: a workload, its set-up,
// a ladder rung, a repetition, a probe batch. Spans of one invocation share
// Run; a span's self time is its duration minus its children's.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Host nanoseconds since the recorder started.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Simulated picoseconds the interval covered, where one kernel ran.
	SimPs int64 `json:"sim_ps,omitempty"`
}

// recorder keeps the spans in memory and writes them once, at exit.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id.
func (r *recorder) begin(parent int, name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int, simPs int64) {
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.t0).Nanoseconds()
	s.SimPs = simPs
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
