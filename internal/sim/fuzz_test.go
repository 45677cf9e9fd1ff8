package sim

import "testing"

// FuzzTimerWheel decodes the input into an operation stream over the
// production eventQueue and the reference heap from differential_test.go,
// then checks the two agree on every pop and on the final drain. Each
// 6-byte chunk is one op: [kind, d0, d1, d2, d3, shift]. The horizon
// uint32(d)<<(shift%16), up to 2^47 ps (~141 s), spans same-slot pushes,
// every wheel level, the cascade boundaries, and the far-future heap
// spill beyond the last level's ~17.6 s.
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{})
	// One push per horizon band: L0, L1, L2, L3, heap; then a pop.
	f.Add([]byte{
		0, 1, 0, 0, 0, 0, // at = now+1 (level 0)
		0, 0, 0, 64, 0, 0, // 2^22: level 1
		0, 0, 0, 0, 64, 0, // 2^30: level 2
		0, 0, 0, 0, 64, 10, // 2^40: level 3
		0, 0, 0, 0, 255, 15, // ~2^47: heap
		5, 0, 0, 0, 0, 0, // pop
	})
	// Equal-timestamp seq tie-break: two zero-delta pushes then pops.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0})
	// Timer churn: reset, reset (re-arm), stop, pop.
	f.Add([]byte{3, 16, 0, 0, 0, 1, 3, 32, 0, 0, 0, 1, 4, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0})
	// Stop of a never-armed timer, pop on an empty queue.
	f.Add([]byte{4, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref refQueue
		var q eventQueue
		q.init()
		var (
			now Time
			seq uint64
			id  int64
		)
		timers := make([]*difTimer, 4)
		for i := range timers {
			timers[i] = &difTimer{idx: nilIdx}
		}
		pushBoth := func(at Time, tm *difTimer) {
			idx := q.alloc()
			e := &q.arena[idx]
			e.at, e.seq, e.gen = at, seq, uint64(id)
			if tm != nil {
				ref.push(at, seq, id, &tm.ref, tm.ref.gen)
				tm.idx = idx
			} else {
				ref.push(at, seq, id, nil, 0)
			}
			id++
			seq++
			q.insert(idx, now)
		}
		for i := 0; i+6 <= len(data); i += 6 {
			d := uint64(data[i+1]) | uint64(data[i+2])<<8 |
				uint64(data[i+3])<<16 | uint64(data[i+4])<<24
			horizon := Duration(d << (data[i+5] % 16))
			tm := timers[int(data[i+5])%len(timers)]
			switch data[i] % 6 {
			case 0, 1, 2:
				pushBoth(now.Add(horizon), nil)
			case 3: // timer reset
				tm.ref.gen++
				tm.ref.pending = true
				if tm.idx != nilIdx {
					q.remove(tm.idx)
					q.release(tm.idx)
				}
				pushBoth(now.Add(horizon), tm)
			case 4: // timer stop
				if tm.ref.pending {
					tm.ref.gen++
					tm.ref.pending = false
				}
				if tm.idx != nilIdx {
					q.remove(tm.idx)
					q.release(tm.idx)
					tm.idx = nilIdx
				}
			case 5: // pop and compare
				rat, rseq, rid, rok := ref.popLive()
				idx := q.peek(now)
				checkCascaded(t, &q, now)
				if !rok {
					if idx != nilIdx {
						t.Fatalf("op %d: ref empty, queue has (at=%d seq=%d)",
							i/6, q.arena[idx].at, q.arena[idx].seq)
					}
					continue
				}
				if idx == nilIdx {
					t.Fatalf("op %d: queue empty, ref has (at=%d seq=%d)", i/6, rat, rseq)
				}
				e := &q.arena[idx]
				if e.at != rat || e.seq != rseq || int64(e.gen) != rid {
					t.Fatalf("op %d: queue (at=%d seq=%d id=%d) vs ref (at=%d seq=%d id=%d)",
						i/6, e.at, e.seq, int64(e.gen), rat, rseq, rid)
				}
				for _, tmr := range timers {
					if tmr.idx == idx {
						tmr.idx = nilIdx
					}
				}
				now = e.at
				q.remove(idx)
				q.release(idx)
			}
		}
		// Drain: tails must agree, then the queue must be structurally empty.
		for {
			rat, rseq, rid, rok := ref.popLive()
			idx := q.peek(now)
			checkCascaded(t, &q, now)
			if !rok {
				if idx != nilIdx {
					t.Fatalf("drain: ref empty, queue has seq=%d", q.arena[idx].seq)
				}
				break
			}
			if idx == nilIdx {
				t.Fatalf("drain: queue empty, ref has seq=%d", rseq)
			}
			e := &q.arena[idx]
			if e.at != rat || e.seq != rseq || int64(e.gen) != rid {
				t.Fatalf("drain: queue (at=%d seq=%d id=%d) vs ref (at=%d seq=%d id=%d)",
					e.at, e.seq, int64(e.gen), rat, rseq, rid)
			}
			for _, tmr := range timers {
				if tmr.idx == idx {
					tmr.idx = nilIdx
				}
			}
			now = e.at
			q.remove(idx)
			q.release(idx)
		}
		if q.size != 0 {
			t.Fatalf("queue reports %d residual events after drain", q.size)
		}
		for l := range q.wheel {
			if q.wheel[l].count != 0 {
				t.Fatalf("wheel level %d reports %d residual events", l, q.wheel[l].count)
			}
		}
		if len(q.heap) != 0 {
			t.Fatalf("heap holds %d residual events", len(q.heap))
		}
	})
}
