package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// Differential scheduler harness: the retained reference implementation
// below reproduces the kernel's previous event queue — a container/heap
// min-heap ordered by (at, seq) with lazily-invalidated ("ghost") timer
// entries — and every randomized operation stream is applied to it and to
// the production eventQueue side by side. The observable pop order (the
// (at, seq, id) stream of live events, including equal-timestamp seq
// tie-breaks and skipped stale timer generations) must be identical: this
// is the bit-identical-replay property the wheel + eager-removal rewrite
// claims, checked against the semantics it replaced.

// refEvent is one entry of the reference heap.
type refEvent struct {
	at  Time
	seq uint64
	id  int64 // payload identity for cross-checking
	tmr *refTimer
	gen uint64 // timer generation at push time
}

type refTimer struct {
	gen     uint64 // current generation; mismatched heap entries are ghosts
	pending bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refQueue is the old scheduler: ghosts stay queued until dispatch.
type refQueue struct {
	h refHeap
}

func (r *refQueue) push(at Time, seq uint64, id int64, tmr *refTimer, gen uint64) {
	heap.Push(&r.h, &refEvent{at: at, seq: seq, id: id, tmr: tmr, gen: gen})
}

// popLive dispatches until a live event emerges, skipping ghosts exactly
// as the old kernel's dispatch loop did. ok is false when only ghosts (or
// nothing) remained.
func (r *refQueue) popLive() (Time, uint64, int64, bool) {
	for len(r.h) > 0 {
		e := heap.Pop(&r.h).(*refEvent)
		if e.tmr != nil {
			if e.tmr.gen != e.gen {
				continue // ghost: cancelled or re-armed since push
			}
			e.tmr.pending = false
		}
		return e.at, e.seq, e.id, true
	}
	return 0, 0, 0, false
}

// difTimer pairs a reference timer with its production-queue arena index.
type difTimer struct {
	ref refTimer
	idx int32 // nilIdx when idle
}

// wheelHorizons is the horizon mix the scheduler oracles push at:
// same-instant, sub-slot, then for every wheel level a few slots in, deep
// in the level and exactly its horizon (the first prefix the next level
// takes), beyond the last level (the heap), and a jump of several
// level-1 slots at once, which moves the cascade cursors by more than
// one slot.
func wheelHorizons() []Duration {
	h := []Duration{0, 0, 1, 100, Duration(1) << wheelShifts[0] / 1000}
	for _, shift := range wheelShifts {
		h = append(h, Duration(1)<<shift*3, Duration(1)<<shift*200, Duration(1)<<shift*256)
	}
	last := wheelShifts[len(wheelShifts)-1]
	return append(h, Duration(1)<<last*300, Duration(1)<<wheelShifts[1]*7+12345)
}

// checkCascaded fails unless a peek at now left every level above 0
// without an event in now's own slot prefix: the cascade cursors skip a
// level only while no such event can exist, and one left behind would
// make every later rescan of its level walk the whole slot.
func checkCascaded(t *testing.T, q *eventQueue, now Time) {
	t.Helper()
	for l := 1; l < len(q.wheel); l++ {
		prefix := uint64(now) >> wheelShifts[l]
		for idx := q.wheel[l].slot[int32(prefix)&(wheelSlots-1)]; idx != nilIdx; idx = q.arena[idx].next {
			if uint64(q.arena[idx].at)>>wheelShifts[l] == prefix {
				t.Fatalf("now %d: level %d still holds an event at %d in the cursor slot", now, l, q.arena[idx].at)
			}
		}
	}
}

func TestDifferentialScheduler(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ref refQueue
		var q eventQueue
		q.init()

		var (
			now    Time
			seq    uint64
			nextID int64
			live   []int32 // production arena indices of plain events
		)
		timers := make([]*difTimer, 8)
		for i := range timers {
			timers[i] = &difTimer{idx: nilIdx}
		}
		horizons := wheelHorizons()
		var lastAt Time

		pushBoth := func(at Time, tm *difTimer) {
			id := nextID
			nextID++
			idx := q.alloc()
			e := &q.arena[idx]
			e.at, e.seq = at, seq
			e.gen = uint64(id) // reuse gen as the payload identity channel
			if tm != nil {
				ref.push(at, seq, id, &tm.ref, tm.ref.gen)
				tm.idx = idx
			} else {
				ref.push(at, seq, id, nil, 0)
				live = append(live, idx)
			}
			seq++
			q.insert(idx, now)
		}

		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(11); {
			case r == 10: // advance now without a pop, as RunUntil does to its limit
				jump := Duration(1)<<wheelShifts[1]*5 + Duration(rng.Intn(1<<wheelShifts[1]))
				if idx := q.peek(now); idx == nilIdx || q.arena[idx].at >= now.Add(jump) {
					now = now.Add(jump)
				}
			case r < 4: // plain push
				at := now.Add(horizons[rng.Intn(len(horizons))])
				if rng.Intn(4) == 0 && lastAt >= now {
					at = lastAt // force (at, seq) tie-breaks
				}
				lastAt = at
				pushBoth(at, nil)
			case r < 6: // timer reset: ghost in ref, eager swap in new
				tm := timers[rng.Intn(len(timers))]
				tm.ref.gen++
				tm.ref.pending = true
				if tm.idx != nilIdx {
					q.remove(tm.idx)
					q.release(tm.idx)
				}
				pushBoth(now.Add(horizons[rng.Intn(len(horizons))]), tm)
			case r < 7: // timer stop: ghost in ref, removal in new
				tm := timers[rng.Intn(len(timers))]
				if tm.ref.pending {
					tm.ref.gen++
					tm.ref.pending = false
				}
				if tm.idx != nilIdx {
					q.remove(tm.idx)
					q.release(tm.idx)
					tm.idx = nilIdx
				}
			default: // pop and compare
				rat, rseq, rid, rok := ref.popLive()
				idx := q.peek(now)
				checkCascaded(t, &q, now)
				if !rok {
					if idx != nilIdx {
						t.Fatalf("seed %d op %d: ref empty, queue has (at=%d seq=%d)",
							seed, op, q.arena[idx].at, q.arena[idx].seq)
					}
					continue
				}
				if idx == nilIdx {
					t.Fatalf("seed %d op %d: queue empty, ref has (at=%d seq=%d id=%d)",
						seed, op, rat, rseq, rid)
				}
				e := &q.arena[idx]
				if e.at != rat || e.seq != rseq || int64(e.gen) != rid {
					t.Fatalf("seed %d op %d: pop mismatch: queue (at=%d seq=%d id=%d) vs ref (at=%d seq=%d id=%d)",
						seed, op, e.at, e.seq, int64(e.gen), rat, rseq, rid)
				}
				// Mirror the kernel's dispatch: detach timers, advance now.
				for _, tm := range timers {
					if tm.idx == idx {
						tm.idx = nilIdx
					}
				}
				now = e.at
				q.remove(idx)
				q.release(idx)
			}
		}

		// Drain both completely: the tails must agree event for event.
		for {
			rat, rseq, rid, rok := ref.popLive()
			idx := q.peek(now)
			checkCascaded(t, &q, now)
			if !rok {
				if idx != nilIdx {
					t.Fatalf("seed %d drain: ref empty, queue has seq=%d", seed, q.arena[idx].seq)
				}
				break
			}
			if idx == nilIdx {
				t.Fatalf("seed %d drain: queue empty, ref has seq=%d", seed, rseq)
			}
			e := &q.arena[idx]
			if e.at != rat || e.seq != rseq || int64(e.gen) != rid {
				t.Fatalf("seed %d drain: (at=%d seq=%d id=%d) vs ref (at=%d seq=%d id=%d)",
					seed, e.at, e.seq, int64(e.gen), rat, rseq, rid)
			}
			for _, tm := range timers {
				if tm.idx == idx {
					tm.idx = nilIdx
				}
			}
			now = e.at
			q.remove(idx)
			q.release(idx)
		}
		if q.size != 0 {
			t.Fatalf("seed %d: queue reports %d residual events after drain", seed, q.size)
		}
		_ = live
	}
}

// TestDifferentialKernelTimers drives real Kernel timers (Reset/Stop
// races, stale wakes via timed waits) against the same seeds twice and
// checks the two runs observe identical fire sequences — seeded replay at
// the kernel API level rather than the queue level.
func TestDifferentialKernelTimers(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var fired []Time
		timers := make([]*Timer, 6)
		for i := range timers {
			timers[i] = k.NewTimer(func() { fired = append(fired, k.Now()) })
		}
		for i := 0; i < 400; i++ {
			d := Duration(rng.Intn(1 << 22))
			at := Time(rng.Intn(1 << 24))
			tm := timers[rng.Intn(len(timers))]
			switch rng.Intn(4) {
			case 0:
				k.At(at, func() { tm.Reset(d) })
			case 1:
				k.At(at, func() { tm.Stop() })
			case 2:
				k.At(at, func() { fired = append(fired, k.Now()) })
			case 3:
				tm.Reset(d)
			}
		}
		k.RunUntil(Time(1 << 26))
		k.Shutdown()
		return fired
	}
	for seed := int64(0); seed < 10; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay diverged: %d vs %d firings", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: firing %d at %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}
