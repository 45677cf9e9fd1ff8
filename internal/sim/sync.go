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
// predicate in a loop after Wait returns.
type Signal struct {
	k       *Kernel
	waiters []waiterRef
}

// NewSignal returns a signal bound to kernel k.
func (k *Kernel) NewSignal() *Signal { return &Signal{k: k} }

// Wait parks p until the next Notify.
func (s *Signal) Wait(p *Proc) {
	gen := p.prepareWait()
	s.waiters = append(s.waiters, waiterRef{p, gen})
	p.park()
}

// WaitTimeout parks p until the next Notify or until d elapses. It reports
// true if the signal fired and false on timeout.
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	gen := p.prepareWait()
	s.waiters = append(s.waiters, waiterRef{p, gen})
	s.k.scheduleWake(s.k.now.Add(d), p, gen, WakeTimeout)
	return p.park() != WakeTimeout
}

// Notify wakes every process currently waiting on the signal.
func (s *Signal) Notify() {
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for _, w := range ws {
		if w.valid() {
			s.k.scheduleWake(s.k.now, w.p, w.gen, WakeDone)
		}
	}
}

// HasWaiters reports whether any process is currently waiting.
func (s *Signal) HasWaiters() bool {
	for _, w := range s.waiters {
		if w.valid() {
			return true
		}
	}
	return false
}

// A Resource is a counted FIFO semaphore: up to Capacity holders at once,
// further acquirers queue in arrival order. It models exclusive or pooled
// hardware (CPU cores, bus slots, DMA channels).
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	queue    fifo[resWaiter]

	// accounting
	busySince  Time
	BusyTime   Duration // total time with at least one holder
	GrantCount int64
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

// QueueLen returns the number of processes and callbacks waiting to acquire.
func (r *Resource) QueueLen() int {
	n := 0
	for _, w := range r.queue.live() {
		if w.valid() {
			n++
		}
	}
	return n
}

// Acquire obtains one unit, blocking in FIFO order when none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.grant()
		return
	}
	gen := p.prepareWait()
	r.queue.push(resWaiter{waiterRef: waiterRef{p, gen}})
	p.park()
	// Release woke us and transferred its unit: it already called grant.
}

// AcquireThen obtains one unit for a kernel callback: fn runs at once when
// a unit is free, and otherwise queues behind the current waiters. Release
// hands the unit over by scheduling fn at the instant, and the event
// sequence position, at which it would have woken a parked process, so a
// callback state machine and a process see the same grant order. fn owns
// the unit and must Release it.
func (r *Resource) AcquireThen(fn func()) {
	if r.inUse < r.capacity {
		r.grant()
		fn()
		return
	}
	r.queue.push(resWaiter{fn: fn})
}

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.grant()
		return true
	}
	return false
}

func (r *Resource) grant() {
	if r.inUse == 0 {
		r.busySince = r.k.now
	}
	r.inUse++
	r.GrantCount++
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
		// Transfer the unit directly: inUse stays constant but a new
		// grant is recorded for the waiter.
		r.GrantCount++
		if w.fn != nil {
			r.k.At(r.k.now, w.fn)
		} else {
			r.k.scheduleWake(r.k.now, w.p, w.gen, WakeDone)
		}
		return
	}
	r.inUse--
	if r.inUse == 0 {
		r.BusyTime += r.k.now.Sub(r.busySince)
	}
}

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}

// UseFor holds one unit for duration d: the canonical "execute on this
// hardware for d" operation.
func (r *Resource) UseFor(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Utilization returns the fraction of time in [0, now] during which the
// resource had at least one holder.
func (r *Resource) Utilization() float64 {
	busy := r.BusyTime
	if r.inUse > 0 {
		busy += r.k.now.Sub(r.busySince)
	}
	if r.k.now == 0 {
		return 0
	}
	return float64(busy) / float64(r.k.now)
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

// live returns the queued items, oldest first.
func (f *fifo[T]) live() []T { return f.buf[f.head:] }

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
