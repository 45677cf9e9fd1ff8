package sim

// waiterRef identifies a parked process at a particular wait generation.
// A wake delivered for a stale generation is discarded by the kernel, so
// lists of waiterRefs may be cleaned up lazily.
type waiterRef struct {
	p   *Proc
	gen uint64
}

func (w waiterRef) valid() bool { return w.p.waiting && w.p.waitGen == w.gen }

// A Signal is a broadcast condition: processes Wait on it and any code may
// Notify to wake all current waiters. Waits may carry a timeout. Because
// waiters are woken (not handed a value), users should re-check their
// predicate in a loop after Wait returns. A kernel callback waits with
// WaitThen, in the same FIFO as the processes.
type Signal struct {
	k       *Kernel
	waiters []resWaiter
}

// NewSignal returns a signal bound to kernel k.
func (k *Kernel) NewSignal() *Signal { return &Signal{k: k} }

// Wait parks p until the next Notify.
func (s *Signal) Wait(p *Proc) {
	gen := p.prepareWait()
	s.waiters = append(s.waiters, resWaiter{waiterRef: waiterRef{p, gen}})
	p.park()
}

// WaitThen runs fn at the next Notify, at the instant and event sequence
// position at which Notify would have woken a process waiting in its
// place. Like that process, fn must re-check its predicate.
func (s *Signal) WaitThen(fn func()) { s.waiters = append(s.waiters, resWaiter{fn: fn}) }

// WaitTimeout parks p until the next Notify or until d elapses. It reports
// true if the signal fired and false on timeout.
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	gen := p.prepareWait()
	s.waiters = append(s.waiters, resWaiter{waiterRef: waiterRef{p, gen}})
	s.k.scheduleWake(s.k.now.Add(d), p, gen, WakeTimeout)
	return p.park() != WakeTimeout
}

// Notify wakes every process currently waiting on the signal.
func (s *Signal) Notify() {
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for _, w := range ws {
		switch {
		case w.fn != nil:
			s.k.At(s.k.now, w.fn)
		case w.valid():
			s.k.scheduleWake(s.k.now, w.p, w.gen, WakeDone)
		}
	}
}

// A Resource is a counted FIFO semaphore: up to Capacity holders at once,
// further acquirers queue in arrival order. It models exclusive or pooled
// hardware (CPU cores, bus slots, DMA channels).
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	queue    fifo[resWaiter]
}

// A resWaiter is one queued acquirer: a parked process (Acquire) or a
// kernel callback (AcquireThen). Both kinds share one arrival order.
type resWaiter struct {
	waiterRef
	fn func()
}

func (w resWaiter) valid() bool { return w.fn != nil || w.waiterRef.valid() }

// NewResource returns a resource with the given capacity (>= 1).
func (k *Kernel) NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, capacity: capacity}
}

// Capacity returns the maximum simultaneous holders.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of current holders.
func (r *Resource) InUse() int { return r.inUse }

// Acquire obtains one unit, blocking in FIFO order when none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	gen := p.prepareWait()
	r.queue.push(resWaiter{waiterRef: waiterRef{p, gen}})
	p.park()
	// Release woke us and transferred its unit to us.
}

// AcquireThen obtains one unit for a kernel callback: fn runs at once when
// a unit is free, and otherwise queues behind the current waiters. Release
// hands the unit over by scheduling fn at the instant, and the event
// sequence position, at which it would have woken a parked process, so a
// callback state machine and a process see the same grant order. fn owns
// the unit and must Release it.
func (r *Resource) AcquireThen(fn func()) {
	if r.inUse < r.capacity {
		r.inUse++
		fn()
		return
	}
	r.queue.push(resWaiter{fn: fn})
}

// Release returns one unit, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	for r.queue.len() > 0 {
		w := r.queue.pop()
		if !w.valid() {
			continue
		}
		// Transfer the unit directly: inUse stays constant.
		if w.fn != nil {
			r.k.At(r.k.now, w.fn)
		} else {
			r.k.scheduleWake(r.k.now, w.p, w.gen, WakeDone)
		}
		return
	}
	r.inUse--
}

// A Queue is a FIFO of values with blocking Get and optionally bounded
// capacity (capacity 0 means unbounded; Put then never blocks).
type Queue[T any] struct {
	k        *Kernel
	items    fifo[T]
	capacity int
	notEmpty *Signal
	notFull  *Signal
	closed   bool
}

// NewQueue returns a queue bound to kernel k. capacity 0 means unbounded.
func NewQueue[T any](k *Kernel, capacity int) *Queue[T] {
	return &Queue[T]{k: k, capacity: capacity, notEmpty: k.NewSignal(), notFull: k.NewSignal()}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Put appends v, blocking while a bounded queue is full. Put on a closed
// queue panics (it indicates a protocol bug in the simulation).
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.capacity > 0 && q.items.len() >= q.capacity && !q.closed {
		q.notFull.Wait(p)
	}
	if q.closed {
		panic("sim: Put on closed queue")
	}
	q.items.push(v)
	q.notEmpty.Notify()
}

// TryPut appends v if the queue has room; it reports success.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || (q.capacity > 0 && q.items.len() >= q.capacity) {
		return false
	}
	q.items.push(v)
	q.notEmpty.Notify()
	return true
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. The second result is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (T, bool) {
	for q.items.len() == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	return q.take()
}

// GetTimeout is Get with a deadline; ok=false with timedOut=true means the
// wait expired.
func (q *Queue[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool, timedOut bool) {
	deadline := q.k.now.Add(d)
	for q.items.len() == 0 && !q.closed {
		remain := deadline.Sub(q.k.now)
		if remain <= 0 || !q.notEmpty.WaitTimeout(p, remain) {
			var zero T
			return zero, false, true
		}
	}
	v, ok = q.take()
	return v, ok, false
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) { return q.take() }

// WhenItem runs fn where a process blocked in Get would be woken: at the
// next Put or TryPut, or Close. Like that process, fn must re-check the
// queue: a callback state machine takes its items this way, in the same
// FIFO as the processes.
func (q *Queue[T]) WhenItem(fn func()) { q.notEmpty.WaitThen(fn) }

// WhenRoom runs fn where a process blocked in Put would be woken: when a
// Get or TryGet next takes an item, or at Close. fn must re-check for
// room.
func (q *Queue[T]) WhenRoom(fn func()) { q.notFull.WaitThen(fn) }

func (q *Queue[T]) take() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	v := q.items.pop()
	q.notFull.Notify()
	return v, true
}

// Close marks the queue closed: pending and future Gets drain remaining
// items then return ok=false.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Notify()
	q.notFull.Notify()
}

// fifo is a slice queue popped by a head index. The backing array is
// reused: the head resets when the queue empties, and a push that finds
// the array full slides the live items down before growing it, so a
// steady push/pop stream allocates nothing.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the oldest item; the fifo must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}
