package sim

import "testing"

// Steady-state allocation ceilings for the kernel hot path. The event
// arena, free-list, and timer eager-rearm are all pooled, so after warm-up
// a push/pop cycle and a timer rearm must not allocate at all. These run
// under `make check`; a regression here is a regression in events/sec.

func TestAllocsEventPushPop(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	fn := func() {}
	cycle := func() {
		k.At(k.Now().Add(100), fn)
		k.RunUntil(k.Now().Add(200))
	}
	for i := 0; i < 256; i++ {
		cycle() // warm the arena and shell pool
	}
	if avg := testing.AllocsPerRun(512, cycle); avg != 0 {
		t.Fatalf("event push/pop allocates %.2f objects per cycle, want 0", avg)
	}
}

func TestAllocsProcParkWake(t *testing.T) {
	// One process parks and is resumed per cycle: the wake event, the
	// coroutine switch out and the switch back in must all be free.
	k := NewKernel()
	defer k.Shutdown()
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(100)
		}
	})
	cycle := func() { k.RunUntil(k.Now().Add(100)) }
	for i := 0; i < 256; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(512, cycle); avg != 0 {
		t.Fatalf("process park/wake allocates %.2f objects per cycle, want 0", avg)
	}
}

func TestAllocsResourceContended(t *testing.T) {
	// Two processes and a callback chain take turns on one unit, so every
	// Release hands it to a queued waiter: the waiter FIFO must reuse its
	// backing array.
	k := NewKernel()
	defer k.Shutdown()
	r := k.NewResource(1)
	for i := 0; i < 2; i++ {
		k.Go("holder", func(p *Proc) {
			for {
				r.Acquire(p)
				p.Sleep(100)
				r.Release()
			}
		})
	}
	var granted, release func()
	granted = func() { k.After(100, release) }
	release = func() {
		r.Release()
		r.AcquireThen(granted)
	}
	r.AcquireThen(granted)
	cycle := func() { k.RunUntil(k.Now().Add(300)) }
	for i := 0; i < 256; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(512, cycle); avg != 0 {
		t.Fatalf("contended acquire/release allocates %.2f objects per cycle, want 0", avg)
	}
}

func TestAllocsQueuePutGet(t *testing.T) {
	// A producer puts two items per cycle and a consumer takes them: the
	// item FIFO must reuse its backing array.
	k := NewKernel()
	defer k.Shutdown()
	q := NewQueue[int](k, 0)
	k.Go("producer", func(p *Proc) {
		for i := 0; ; i++ {
			q.Put(p, i)
			q.Put(p, i)
			p.Sleep(100)
		}
	})
	k.Go("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	cycle := func() { k.RunUntil(k.Now().Add(100)) }
	for i := 0; i < 256; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(512, cycle); avg != 0 {
		t.Fatalf("queue put/get allocates %.2f objects per cycle, want 0", avg)
	}
}

func TestAllocsTimerRearm(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	tm := k.NewTimer(func() {})
	rearm := func() {
		tm.Reset(1000)
		tm.Reset(5000)                              // same-level rearm
		tm.Reset(Duration(1) << wheelShifts[1] * 4) // cross-level rearm
		tm.Stop()
	}
	for i := 0; i < 64; i++ {
		rearm()
	}
	if avg := testing.AllocsPerRun(512, rearm); avg != 0 {
		t.Fatalf("timer rearm allocates %.2f objects per cycle, want 0", avg)
	}
}

func TestAllocsWheelHeapSpill(t *testing.T) {
	// Far-future events overflow the wheel into the 4-ary heap; the heap
	// backing array and the arena both pool, so spill/unspill is also free.
	k := NewKernel()
	defer k.Shutdown()
	tm := k.NewTimer(func() {})
	spill := func() {
		tm.Reset(Duration(1) << wheelShifts[2] * 300) // beyond the wheel
		tm.Stop()
	}
	for i := 0; i < 64; i++ {
		spill()
	}
	if avg := testing.AllocsPerRun(512, spill); avg != 0 {
		t.Fatalf("heap spill allocates %.2f objects per cycle, want 0", avg)
	}
}
