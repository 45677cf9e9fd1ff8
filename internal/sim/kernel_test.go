package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(3 * Microsecond)
	if tm != Time(3_000_000) {
		t.Fatalf("3us = %d ps, want 3000000", int64(tm))
	}
	if d := tm.Sub(Time(1_000_000)); d != 2*Microsecond {
		t.Fatalf("Sub = %v, want 2us", d)
	}
	if s := (1500 * Millisecond).Seconds(); s != 1.5 {
		t.Fatalf("Seconds = %v", s)
	}
}

func TestCycles(t *testing.T) {
	// One cycle at 1GHz is exactly 1ns.
	if d := Cycles(1, GHz(1)); d != Nanosecond {
		t.Fatalf("1 cycle @1GHz = %v, want 1ns", d)
	}
	// 2.45GHz cycle is ~408ps.
	d := Cycles(1, GHz(2.45))
	if d < 407*Picosecond || d > 409*Picosecond {
		t.Fatalf("1 cycle @2.45GHz = %v, want ~408ps", d)
	}
	// Cycles scales linearly (within rounding).
	if d1, d100 := Cycles(1, GHz(3.4)), Cycles(100, GHz(3.4)); d100 < 99*d1 || d100 > 101*d1 {
		t.Fatalf("Cycles not linear: %v vs %v", d1, d100)
	}
}

func TestAtRate(t *testing.T) {
	// 1250 bytes at 10Gbps (1.25GB/s) takes 1us.
	if d := AtRate(1250, Gbps(10)); d != Microsecond {
		t.Fatalf("1250B @10Gbps = %v, want 1us", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500 * Picosecond: "500ps",
		2 * Nanosecond:   "2ns",
		15 * Microsecond: "15us",
		3 * Millisecond:  "3ms",
		2 * Second:       "2s",
		-5 * Microsecond: "-5us",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d ps String = %q, want %q", int64(d), got, want)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.At(10, func() { got = append(got, 11) }) // same time: FIFO by seq
	end := k.Run()
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order got %v, want %v", got, want)
		}
	}
	if end != 30 {
		t.Fatalf("end time %v, want 30ps", end)
	}
}

func TestEventOrderingProperty(t *testing.T) {
	// Property: for any set of scheduled times, callbacks run in
	// non-decreasing time order, with ties broken by insertion order.
	f := func(times []uint16) bool {
		k := NewKernel()
		type fire struct {
			at  Time
			seq int
		}
		var fired []fire
		for i, tt := range times {
			at := Time(tt)
			i := i
			k.At(at, func() { fired = append(fired, fire{k.Now(), i}) })
		}
		k.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		}) {
			return false
		}
		for i, f := range fired {
			_ = i
			if f.at != Time(times[f.seq]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = p.Now()
	})
	k.Run()
	if wake != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5us", wake)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", k.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var trace []string
	mk := func(name string, d Duration, n int) {
		k.Go(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(d)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 3, 3) // wakes at 3,6,9
	mk("b", 4, 2) // wakes at 4,8
	k.Run()
	want := []string{"a", "b", "a", "b", "a"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	k := NewKernel()
	var n int
	k.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Microsecond)
			n++
		}
	})
	k.RunUntil(Time(3500 * Nanosecond))
	if n != 3 {
		t.Fatalf("after 3.5us n=%d, want 3", n)
	}
	if k.Now() != Time(3500*Nanosecond) {
		t.Fatalf("now=%v", k.Now())
	}
	k.Run()
	if n != 10 {
		t.Fatalf("final n=%d", n)
	}
}

func TestSignalNotify(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal()
	var woke []Time
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) {
			s.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	k.At(Time(7*Nanosecond), func() { s.Notify() })
	k.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != Time(7*Nanosecond) {
			t.Fatalf("woke at %v, want 7ns", w)
		}
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal()
	var fired, timedOut bool
	k.Go("t1", func(p *Proc) {
		fired = s.WaitTimeout(p, 10*Nanosecond)
	})
	k.Go("t2", func(p *Proc) {
		timedOut = !s.WaitTimeout(p, 2*Nanosecond)
	})
	k.At(Time(5*Nanosecond), func() { s.Notify() })
	k.Run()
	if !fired {
		t.Error("t1 should have been signalled at 5ns (before its 10ns timeout)")
	}
	if !timedOut {
		t.Error("t2 should have timed out at 2ns (before the 5ns notify)")
	}
	// The stale notify to t2 must not corrupt later waits.
	done := false
	k.Go("t3", func(p *Proc) {
		p.Sleep(Nanosecond)
		done = true
	})
	k.Run()
	if !done {
		t.Error("post-timeout process did not run")
	}
}

func TestResourceFIFO(t *testing.T) {
	k := NewKernel()
	r := k.NewResource(1)
	var order []string
	hold := func(name string, start, dur Duration) {
		k.Go(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(dur)
			r.Release()
		})
	}
	hold("first", 0, 10)
	hold("second", 1, 10)
	hold("third", 2, 10)
	k.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("serialized holds should end at 30ps, got %v", k.Now())
	}
}

// TestAcquireThenSharesFIFO queues two waiters, A then B, behind one
// holder. Each waiter is either a process (Acquire) or a callback chain
// (AcquireThen) with the same event structure; every mix must produce the
// event log of the all-process run, so a callback waiter is granted in
// arrival order, at the same instant, and in the same event slot a parked
// process would have been woken in.
func TestAcquireThenSharesFIFO(t *testing.T) {
	run := func(callback map[string]bool) []string {
		k := NewKernel()
		defer k.Shutdown()
		r := k.NewResource(1)
		var log []string
		note := func(s string) { log = append(log, s+"@"+k.Now().String()) }
		k.Go("holder", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(100)
			r.Release()
			note("holder released")
		})
		// Probes share the grant and release instants with the waiters.
		for _, at := range []Time{100, 150} {
			k.At(at, func() { note("probe") })
		}
		for i, name := range []string{"A", "B"} {
			delay := Duration(10 * (i + 1))
			if !callback[name] {
				k.Go(name, func(p *Proc) {
					p.Sleep(delay)
					r.Acquire(p)
					note(name + " granted")
					p.Sleep(50)
					r.Release()
					note(name + " released")
				})
				continue
			}
			// The twin of the process body: the start slot, then one
			// callback per wake.
			k.At(k.Now(), func() {
				k.After(delay, func() {
					r.AcquireThen(func() {
						note(name + " granted")
						k.After(50, func() {
							r.Release()
							note(name + " released")
						})
					})
				})
			})
		}
		k.RunUntil(20)
		if n := r.QueueLen(); n != 2 {
			t.Fatalf("%v: QueueLen=%d behind the holder, want 2", callback, n)
		}
		k.Run()
		return log
	}
	want := run(nil)
	if s := strings.Join(want, ","); !strings.Contains(s, "holder released@100ps,A granted@100ps,probe@150ps,A released@150ps,B granted@150ps") {
		t.Fatalf("all-process log %v: each release should hand the unit on in FIFO order", want)
	}
	for _, mix := range []map[string]bool{{"A": true}, {"B": true}, {"A": true, "B": true}} {
		if got := run(mix); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("callback waiters %v:\n got %v\nwant %v", mix, got, want)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	k := NewKernel()
	r := k.NewResource(2)
	end := map[string]Time{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Go(name, func(p *Proc) {
			r.UseFor(p, 10*Nanosecond)
			end[name] = p.Now()
		})
	}
	k.Run()
	if end["a"] != Time(10*Nanosecond) || end["b"] != Time(10*Nanosecond) {
		t.Fatalf("a,b should run in parallel: %v", end)
	}
	if end["c"] != Time(20*Nanosecond) {
		t.Fatalf("c should queue: %v", end["c"])
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := k.NewResource(1)
	k.Go("u", func(p *Proc) {
		r.UseFor(p, 25*Nanosecond)
		p.Sleep(75 * Nanosecond)
	})
	k.Run()
	if u := r.Utilization(); u < 0.24 || u > 0.26 {
		t.Fatalf("utilization %v, want 0.25", u)
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	var got []int
	k.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(Nanosecond)
			q.Put(p, i)
		}
		q.Close()
	})
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueueBounded(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 2)
	var putDone Time
	k.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks until consumer takes one
		putDone = p.Now()
	})
	k.Go("consumer", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		q.TryGet()
	})
	k.Run()
	if putDone != Time(10*Nanosecond) {
		t.Fatalf("third Put finished at %v, want 10ns", putDone)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	var timedOut bool
	var v int
	k.Go("c", func(p *Proc) {
		_, _, timedOut = q.GetTimeout(p, 5*Nanosecond)
		v2, ok, to2 := q.GetTimeout(p, 100*Nanosecond)
		if !ok || to2 {
			panic("second GetTimeout should receive")
		}
		v = v2
	})
	k.Go("prod", func(p *Proc) {
		p.Sleep(20 * Nanosecond)
		q.Put(p, 42)
	})
	k.Run()
	if !timedOut {
		t.Error("first GetTimeout should time out")
	}
	if v != 42 {
		t.Errorf("v=%d, want 42", v)
	}
}

func TestTimerStopReset(t *testing.T) {
	k := NewKernel()
	var fires []Time
	tm := k.NewTimer(func() { fires = append(fires, k.Now()) })
	tm.Reset(10 * Nanosecond)
	tm.Reset(20 * Nanosecond) // supersedes the 10ns arm
	k.At(Time(30*Nanosecond), func() {
		tm.Reset(10 * Nanosecond)
	})
	k.At(Time(35*Nanosecond), func() {
		if !tm.Stop() {
			panic("stop should report pending")
		}
	})
	k.Run()
	if len(fires) != 1 || fires[0] != Time(20*Nanosecond) {
		t.Fatalf("fires=%v, want [20ns]", fires)
	}
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	s := k.NewSignal()
	for i := 0; i < 4; i++ {
		k.Go("stuck", func(p *Proc) { s.Wait(p) })
	}
	// Two finished processes leave two shells in the pool.
	for i := 0; i < 2; i++ {
		k.Go("finished", func(p *Proc) {})
	}
	k.Run()
	if k.LiveProcs() != 4 || len(k.pool) != 2 {
		t.Fatalf("live=%d pooled=%d, want 4 parked and 2 pooled", k.LiveProcs(), len(k.pool))
	}
	// Created after the last Run, so it never starts: it takes one pooled
	// shell and leaves the other idle in the pool.
	k.Go("late", func(p *Proc) { t.Error("late process started") })
	// On a kernel that never runs, the never-started process sits on a
	// coroutine that has never been resumed.
	k2 := NewKernel()
	k2.Go("unstarted", func(p *Proc) { t.Error("unstarted process started") })

	k.Shutdown()
	k2.Shutdown()
	if k.LiveProcs() != 0 || k2.LiveProcs() != 0 {
		t.Fatalf("live=%d,%d after shutdown", k.LiveProcs(), k2.LiveProcs())
	}
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after shutdown, want %d", n, before)
	}
}

// TestCallbackPanicPropagates checks that a callback panicking between two
// wakes of a parked process reaches the Run caller unchanged, and that the
// kernel still shuts down cleanly afterwards.
func TestCallbackPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(10 * Nanosecond)
		}
	})
	k.At(Time(15*Nanosecond), func() { panic("callback boom") })
	r := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if r != "callback boom" {
		t.Fatalf("recovered %#v, want the callback's own value", r)
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("live=%d after shutdown", k.LiveProcs())
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical randomized simulations must produce identical traces.
	run := func(seed int64) []Time {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		res := k.NewResource(2)
		var trace []Time
		for i := 0; i < 20; i++ {
			d := Duration(rng.Intn(100)) * Nanosecond
			k.Go("p", func(p *Proc) {
				p.Sleep(d)
				res.Acquire(p)
				p.Sleep(Duration(rng.Intn(10)) * Nanosecond)
				trace = append(trace, p.Now())
				res.Release()
			})
		}
		k.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Go("boom", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "boom") {
			t.Fatalf("recovered %v, want a message containing boom", r)
		}
		if !strings.Contains(s, "kernel_test.go") {
			t.Fatalf("panic should carry the origin stack, got: %v", r)
		}
	}()
	k.Run()
	t.Fatal("Run should have panicked")
}
