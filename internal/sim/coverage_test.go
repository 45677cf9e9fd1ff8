package sim

import (
	"fmt"
	"testing"
)

// TestEqualTimestampMixedSources pins the tie-break across every way an
// event can be scheduled: kernel callbacks (At/After), timers, and
// process wakes landing on the same instant run in creation order.
func TestEqualTimestampMixedSources(t *testing.T) {
	k := NewKernel()
	var got []string
	k.After(10*Nanosecond, func() { got = append(got, "after") })
	k.At(Time(10*Nanosecond), func() { got = append(got, "at") })
	tm := k.NewTimer(func() { got = append(got, "timer") })
	tm.Reset(10 * Nanosecond)
	k.Go("proc", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		got = append(got, "proc")
	})
	k.Run()
	want := []string{"after", "at", "timer", "proc"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("equal-timestamp order got %v, want %v", got, want)
	}
}

// TestYieldRunsSameInstantWork checks the wake/sleep contract of a zero
// sleep: everything already scheduled at the current instant runs before
// the yielding process continues.
func TestYieldRunsSameInstantWork(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Go("a", func(p *Proc) {
		got = append(got, "a1")
		p.Sleep(0)
		got = append(got, "a2")
	})
	k.Go("b", func(p *Proc) { got = append(got, "b") })
	k.Run()
	want := []string{"a1", "b", "a2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("yield order got %v, want %v", got, want)
	}
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel()
	var inner *Proc
	k.Go("worker", func(p *Proc) {
		inner = p
		if p.Name() != "worker" {
			t.Errorf("Name() = %q", p.Name())
		}
		if p.k != k {
			t.Error("process is not on the owning kernel")
		}
		if p.done {
			t.Error("done inside the process body")
		}
		p.Sleep(Nanosecond)
	})
	k.Run()
	if inner == nil || !inner.done {
		t.Fatal("process did not finish")
	}
}

func TestTimerPendingExpires(t *testing.T) {
	k := NewKernel()
	fired := 0
	tm := k.NewTimer(func() { fired++ })
	if tm.Pending() {
		t.Fatal("new timer is pending")
	}
	tm.Reset(10 * Nanosecond)
	if !tm.Pending() || k.q.arena[tm.ev].at != Time(10*Nanosecond) {
		t.Fatalf("armed timer: pending=%v", tm.Pending())
	}
	if k.RunFor(5*Nanosecond) != Time(5*Nanosecond) {
		t.Fatal("RunFor did not advance to its limit")
	}
	if fired != 0 || !tm.Pending() {
		t.Fatalf("timer fired early: fired=%d pending=%v", fired, tm.Pending())
	}
	k.RunFor(5 * Nanosecond)
	if fired != 1 || tm.Pending() {
		t.Fatalf("timer at deadline: fired=%d pending=%v", fired, tm.Pending())
	}
	if k.PendingEvents() != 0 {
		t.Fatal("kernel not idle after the only event fired")
	}
	k.After(Nanosecond, func() { fired++ })
	if k.PendingEvents() == 0 {
		t.Fatal("kernel idle with a pending After")
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired=%d, want 2", fired)
	}
}

func TestSignalHasWaiters(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal()
	if len(s.waiters) != 0 {
		t.Fatal("fresh signal has waiters")
	}
	k.Go("w", func(p *Proc) { s.Wait(p) })
	k.Run()
	if len(s.waiters) != 1 || !s.waiters[0].valid() {
		t.Fatal("parked waiter not reported")
	}
	s.Notify()
	if len(s.waiters) != 0 {
		t.Fatal("waiters remain after Notify")
	}
	k.Run()
	k.Shutdown()
}

// TestStaleNotifyIgnored pins the wait-generation contract: a Notify
// arriving after the same wait already timed out must not wake the
// process out of its next, unrelated sleep.
func TestStaleNotifyIgnored(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal()
	var got []string
	k.Go("w", func(p *Proc) {
		if s.WaitTimeout(p, 5*Nanosecond) {
			got = append(got, "signaled")
		} else {
			got = append(got, "timeout")
		}
		p.Sleep(20 * Nanosecond)
		got = append(got, fmt.Sprintf("slept@%v", p.Now()))
	})
	// Fires at the same instant as the timeout but with a later seq, so
	// the timeout wins and this Notify targets a stale generation.
	k.At(Time(5*Nanosecond), func() { s.Notify() })
	k.Run()
	want := []string{"timeout", "slept@25ns"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v (stale notify cut the sleep short?)", got, want)
	}
}

func TestResourceTryAcquireAndAccessors(t *testing.T) {
	k := NewKernel()
	r := k.NewResource(2)
	if r.Capacity() != 2 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("fresh resource: cap=%d inuse=%d qlen=%d", r.Capacity(), r.InUse(), r.QueueLen())
	}
	if !r.TryAcquire() || !r.TryAcquire() {
		t.Fatal("TryAcquire failed with units free")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire succeeded at capacity")
	}
	if r.InUse() != 2 {
		t.Fatalf("InUse=%d, want 2", r.InUse())
	}
	ran := false
	k.Go("user", func(p *Proc) {
		r.Acquire(p)
		if r.InUse() != 2 {
			t.Errorf("InUse after the handoff = %d (unit transferred, count constant)", r.InUse())
		}
		ran = true
		r.Release()
	})
	k.Run()
	if r.QueueLen() != 1 {
		t.Fatalf("QueueLen=%d, want 1 parked acquirer", r.QueueLen())
	}
	r.Release() // hands the unit to the parked acquirer
	k.Run()
	if !ran {
		t.Fatal("parked acquirer never ran")
	}
	r.Release()
	if r.InUse() != 0 {
		t.Fatalf("InUse=%d after all releases", r.InUse())
	}
}

func TestQueueTryOpsAndClose(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 2)
	if q.Len() != 0 || q.Closed() {
		t.Fatalf("fresh queue: len=%d closed=%v", q.Len(), q.Closed())
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if !q.TryPut(1) || !q.TryPut(2) {
		t.Fatal("TryPut failed with room")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut succeeded on a full bounded queue")
	}
	if q.Len() != 2 {
		t.Fatalf("Len=%d, want 2", q.Len())
	}
	if v, ok := q.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet = %d,%v, want 1,true", v, ok)
	}
	q.Close()
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if q.TryPut(4) {
		t.Fatal("TryPut succeeded on a closed queue")
	}
	// A closed queue still drains its remaining items.
	if v, ok := q.TryGet(); !ok || v != 2 {
		t.Fatalf("drain after close = %d,%v, want 2,true", v, ok)
	}
	done := false
	k.Go("g", func(p *Proc) {
		if _, ok := q.Get(p); ok {
			t.Error("Get on closed+drained queue returned ok")
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("Get on closed queue blocked")
	}
}

func TestTimeStringAndRates(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0ps"},
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{3 * Microsecond, "3us"},
		{4 * Millisecond, "4ms"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if got := Time(2 * Millisecond).String(); got != "2ms" {
		t.Errorf("Time.String() = %q", got)
	}
	if GBps(2) != 2e9 {
		t.Errorf("GBps(2) = %v", GBps(2))
	}
}

// TestEventTraceDeterminism runs a scenario that exercises queues,
// resources, signal timeouts and timers together, records the full
// (time, proc, action) event trace, and requires two executions to be
// identical — the property every benchmark in this repo leans on.
func TestEventTraceDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		logf := func(p *Proc, format string, args ...any) {
			trace = append(trace, fmt.Sprintf("%v %s %s", p.Now(), p.Name(), fmt.Sprintf(format, args...)))
		}
		q := NewQueue[int](k, 4)
		r := k.NewResource(2)
		s := k.NewSignal()
		for i := 0; i < 3; i++ {
			i := i
			k.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(i+1) * Nanosecond)
					q.Put(p, i*10+j)
					logf(p, "put %d", i*10+j)
				}
			})
			k.Go(fmt.Sprintf("cons%d", i), func(p *Proc) {
				for {
					v, ok := q.Get(p)
					if !ok {
						logf(p, "closed")
						return
					}
					r.UseFor(p, Duration(v%3)*Nanosecond)
					logf(p, "got %d", v)
					if v%4 == 0 {
						s.Notify()
					}
				}
			})
		}
		k.Go("waiter", func(p *Proc) {
			for i := 0; i < 3; i++ {
				if s.WaitTimeout(p, 7*Nanosecond) {
					logf(p, "signal")
				} else {
					logf(p, "timeout")
				}
			}
		})
		k.After(40*Nanosecond, func() { q.Close() })
		k.Run()
		k.Shutdown()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	return false
}

// live returns the queued items, oldest first.
func (f *fifo[T]) live() []T { return f.buf[f.head:] }

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
