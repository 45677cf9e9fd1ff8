package sim

import "math/bits"

// The event queue behind the kernel: a slab of pooled event structs
// addressed by int32 index, placed either in a hierarchical timer wheel
// (near-future events — the common case for RTO, watchdog, linger and
// NAPI timers) or in an inlined 4-ary min-heap (far-future events).
//
// Determinism contract: peek/pop always yield the live event with the
// smallest (at, seq), exactly as the old container/heap implementation
// did. The wheel never reorders: level L only accepts an event whose
// slot prefix at>>shift is within 255 of now>>shift, so within a level
// the 256 slots hold 256 *consecutive* prefixes and the first occupied
// slot in circular order from the now-cursor necessarily contains the
// level minimum; events sharing a slot share a prefix and are ordered
// by a (at, seq) scan of that slot's list. A peek compares at most five
// candidates: the four level minima and the heap root.

const nilIdx = int32(-1)

const (
	levelFree = int8(-2) // on the free list
	levelHeap = int8(-1) // in the overflow heap
)

// wheelShifts pick the granularity of each level: 2^12 ps ≈ 4.1ns slots
// covering ~1.05us, 2^20 ps ≈ 1.05us slots covering ~268us, 2^28 ps ≈
// 268us slots covering ~68.7ms, and 2^36 ps ≈ 68.7ms slots covering
// ~17.6s. Anything further out overflows to the heap (rare: end-of-run
// drains). Level 0 holds the fire band (sub-us bus, link and cpu events
// that almost always pop) in slots so narrow that the slot a rescan
// walks holds a fraction of an event on average; RTO and watchdog
// timers ~100us+ out, which are usually cancelled, sit in level 1 and
// up, so cancelling one rarely touches the cached level-0 minimum.
// Adjacent shifts differ by 8 bits, one level's 256 slots.
var wheelShifts = [4]uint{12, 20, 28, 36}

const wheelSlots = 256

type event struct {
	at     Time
	seq    uint64
	fn     func()
	proc   *Proc
	timer  *Timer
	gen    uint64 // wait generation the wake targets (proc events only)
	reason WakeReason

	// Queue placement. level selects the structure; pos is the heap
	// position or wheel slot; next/prev link the slot's intrusive list
	// (next doubles as the free-list link).
	level      int8
	pos        int32
	next, prev int32
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type wheelLevel struct {
	slot  [wheelSlots]int32
	occ   [wheelSlots / 64]uint64
	min   int32 // cached arena index of the level minimum; nilIdx = recompute
	count int32
	// Value copies of the cached minimum's key, so the per-pop global
	// compare in peek never dereferences the arena for a warm cache.
	minAt  Time
	minSeq uint64
	// cursor (levels 1 and up) is the prefix now>>shift at the level's
	// last cascade: the slot it names was emptied then, and no insert
	// lands in it while now keeps that prefix.
	cursor uint64
}

type eventQueue struct {
	arena []event
	free  int32 // free-list head, linked through event.next
	heap  []int32
	wheel [len(wheelShifts)]wheelLevel
	size  int
}

func (q *eventQueue) init() {
	q.arena = q.arena[:0]
	q.free = nilIdx
	q.heap = q.heap[:0]
	q.size = 0
	for l := range q.wheel {
		w := &q.wheel[l]
		for i := range w.slot {
			w.slot[i] = nilIdx
		}
		w.occ = [wheelSlots / 64]uint64{}
		w.min = nilIdx
		w.count = 0
		w.cursor = ^uint64(0) // the first peek cascades every level
	}
}

// alloc returns a free event slot. The caller must fill at/seq (and any
// payload) before insert. Pointers into the arena are invalidated by the
// next alloc, so they must not be held across one.
func (q *eventQueue) alloc() int32 {
	if q.free != nilIdx {
		idx := q.free
		q.free = q.arena[idx].next
		return idx
	}
	q.arena = append(q.arena, event{})
	return int32(len(q.arena) - 1)
}

// release recycles an event slot, dropping payload references so pooled
// slots never retain closures or processes.
func (q *eventQueue) release(idx int32) {
	q.arena[idx] = event{next: q.free, level: levelFree}
	q.free = idx
}

// insert places an allocated event into the wheel level matching its
// horizon, or the heap beyond the outermost level. It reports whether
// the event landed in the wheel. Requires at >= now.
func (q *eventQueue) insert(idx int32, now Time) bool {
	e := &q.arena[idx]
	q.size++
	for l := 0; l < len(wheelShifts); l++ {
		shift := wheelShifts[l]
		if uint64(e.at)>>shift-uint64(now)>>shift < wheelSlots {
			q.wheelInsert(l, idx, e)
			return true
		}
	}
	q.heapInsert(idx, e)
	return false
}

func (q *eventQueue) wheelInsert(l int, idx int32, e *event) {
	w := &q.wheel[l]
	s := int32(uint64(e.at)>>wheelShifts[l]) & (wheelSlots - 1)
	e.level, e.pos = int8(l), s
	head := w.slot[s]
	e.next, e.prev = head, nilIdx
	if head != nilIdx {
		q.arena[head].prev = idx
	} else {
		w.occ[s>>6] |= 1 << uint(s&63)
	}
	w.slot[s] = idx
	if w.count == 0 || (w.min != nilIdx && (e.at < w.minAt || (e.at == w.minAt && e.seq < w.minSeq))) {
		w.min, w.minAt, w.minSeq = idx, e.at, e.seq
	}
	w.count++
}

// remove unlinks a live event from whichever structure holds it. The
// slot itself stays allocated; the caller releases it.
func (q *eventQueue) remove(idx int32) {
	e := &q.arena[idx]
	q.size--
	if e.level == levelHeap {
		q.heapRemove(e.pos)
		return
	}
	w := &q.wheel[e.level]
	if e.prev != nilIdx {
		q.arena[e.prev].next = e.next
	} else {
		w.slot[e.pos] = e.next
		if e.next == nilIdx {
			w.occ[e.pos>>6] &^= 1 << uint(e.pos&63)
		}
	}
	if e.next != nilIdx {
		q.arena[e.next].prev = e.prev
	}
	w.count--
	if w.min == idx {
		w.min = nilIdx
	}
}

// cascade re-files outer-level events whose slot the now-cursor has
// reached down to the next finer level. Events sharing the cursor's
// prefix at level L are within 2^shift[L] of now and their bits above
// shift[L] equal now's, so they always fit level L-1. Each event moves
// at most three times over its lifetime, keeping the hot min-scans
// confined to the ~4ns level-0 slots.
//
// A level is visited only when now>>shift enters a new slot. That is
// exact: an insert never lands in a level's cursor slot (an event with
// now's prefix at level L fits level L-1 and is filed there), and a
// cascade from level L+1 only fills level L's cursor slot when level
// L's own prefix moved too, so the top-down pass below empties it.
// The cursors are nested the same way: while level 1's prefix stands
// still, so do all the others'.
func (q *eventQueue) cascade(now Time) {
	if uint64(now)>>wheelShifts[1] == q.wheel[1].cursor {
		return
	}
	for l := len(q.wheel) - 1; l >= 1; l-- {
		w := &q.wheel[l]
		prefix := uint64(now) >> wheelShifts[l]
		if prefix == w.cursor {
			continue
		}
		w.cursor = prefix
		if w.count == 0 {
			continue
		}
		s := int32(prefix) & (wheelSlots - 1)
		if w.occ[s>>6]&(1<<uint(s&63)) == 0 {
			continue
		}
		head := w.slot[s]
		w.slot[s] = nilIdx
		w.occ[s>>6] &^= 1 << uint(s&63)
		for idx := head; idx != nilIdx; {
			e := &q.arena[idx]
			next := e.next
			if w.min == idx {
				w.min = nilIdx
			}
			w.count--
			q.wheelInsert(l-1, idx, e)
			idx = next
		}
	}
}

// peek returns the arena index of the live event with the smallest
// (at, seq), or nilIdx when the queue is empty.
func (q *eventQueue) peek(now Time) int32 {
	q.cascade(now)
	best := nilIdx
	var bAt Time
	var bSeq uint64
	if len(q.heap) > 0 {
		best = q.heap[0]
		e := &q.arena[best]
		bAt, bSeq = e.at, e.seq
	}
	for l := range q.wheel {
		w := &q.wheel[l]
		if w.count == 0 {
			continue
		}
		if w.min == nilIdx {
			q.wheelRescan(l, now)
		}
		if best == nilIdx || w.minAt < bAt || (w.minAt == bAt && w.minSeq < bSeq) {
			best, bAt, bSeq = w.min, w.minAt, w.minSeq
		}
	}
	return best
}

// wheelRescan recomputes a level's min cache: the first occupied slot in
// circular order from the now-cursor necessarily holds the level minimum
// (see the invariant at the top of the file), so only that slot's list
// is scanned.
func (q *eventQueue) wheelRescan(l int, now Time) {
	w := &q.wheel[l]
	s := q.firstOccupied(w, int32(uint64(now)>>wheelShifts[l])&(wheelSlots-1))
	best := w.slot[s]
	be := &q.arena[best]
	for i := be.next; i != nilIdx; i = q.arena[i].next {
		if e := &q.arena[i]; eventLess(e, be) {
			best, be = i, e
		}
	}
	w.min, w.minAt, w.minSeq = best, be.at, be.seq
}

// firstOccupied scans the occupancy bitmap for the first occupied slot
// in circular order starting at cursor c. The caller guarantees the
// level is non-empty.
func (q *eventQueue) firstOccupied(w *wheelLevel, c int32) int32 {
	wi := c >> 6
	if b := w.occ[wi] & (^uint64(0) << uint(c&63)); b != 0 {
		return wi<<6 | int32(bits.TrailingZeros64(b))
	}
	for j := int32(1); j <= 4; j++ {
		word := (wi + j) & 3
		b := w.occ[word]
		if j == 4 {
			b &= 1<<uint(c&63) - 1
		}
		if b != 0 {
			return word<<6 | int32(bits.TrailingZeros64(b))
		}
	}
	panic("sim: firstOccupied on empty wheel level")
}

func (q *eventQueue) heapInsert(idx int32, e *event) {
	e.level = levelHeap
	e.pos = int32(len(q.heap))
	q.heap = append(q.heap, idx)
	q.heapUp(e.pos)
}

func (q *eventQueue) heapRemove(i int32) {
	h := q.heap
	n := int32(len(h)) - 1
	last := h[n]
	h[n] = 0
	q.heap = h[:n]
	if i == n {
		return
	}
	h[i] = last
	q.arena[last].pos = i
	if !q.heapDown(i) {
		q.heapUp(i)
	}
}

func (q *eventQueue) heapUp(i int32) {
	h := q.heap
	idx := h[i]
	e := &q.arena[idx]
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(e, &q.arena[h[parent]]) {
			break
		}
		h[i] = h[parent]
		q.arena[h[i]].pos = i
		i = parent
	}
	h[i] = idx
	e.pos = i
}

// heapDown sifts the element at position i toward the leaves and
// reports whether it moved.
func (q *eventQueue) heapDown(i int32) bool {
	h := q.heap
	n := int32(len(h))
	idx := h[i]
	e := &q.arena[idx]
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		be := &q.arena[h[c]]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if je := &q.arena[h[j]]; eventLess(je, be) {
				best, be = j, je
			}
		}
		if !eventLess(be, e) {
			break
		}
		h[i] = h[best]
		q.arena[h[i]].pos = i
		i = best
	}
	h[i] = idx
	e.pos = i
	return i != start
}
