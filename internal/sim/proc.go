package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// A Proc is a simulated sequential process: a coroutine whose execution is
// interleaved deterministically with all other processes by the kernel. A
// process runs until it blocks (Sleep, Signal.Wait, Resource.Acquire, ...)
// and is resumed when the corresponding event fires.
type Proc struct {
	k       *Kernel
	name    string
	shell   *shell
	waiting bool
	waitGen uint64
	reason  WakeReason // why the last wake resumed the process
	// suspended marks a park that only the shell's resume function ends.
	suspended bool
	// awaiting is set while Await runs its chain's first steps in the
	// process body: a resume then only marks the chain finished.
	awaiting bool
	done     bool
}

// procAbort is panicked inside an aborted process to unwind it; the shell
// recovers it.
type procAbort struct{}

// A shell is a reusable coroutine that hosts one process body at a time.
// Short-lived processes (per-packet drains, IRQ handlers) are the common
// case in this simulator, so finished shells park in the kernel's pool
// and the next Go reuses them instead of creating a coroutine.
type shell struct {
	k     *Kernel
	p     *Proc
	body  func(*Proc)
	next  func() (struct{}, bool) // resume the coroutine from the event loop
	stop  func()                  // make the pending yield return false
	yield func(struct{}) bool     // suspend back to the event loop
	// resume continues p from Suspend inside the calling event; bound
	// once per shell so handing it out allocates nothing.
	resume func()
}

// Go creates a process named name running fn and schedules it to start at
// the current simulated time. It may be called before Run or from within any
// running process or event callback.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name, fn)
	// The start is delivered like a wake so it obeys event ordering.
	p.waiting = true
	k.scheduleWake(k.now, p, p.waitGen, WakeDone)
	return p
}

// GoInPlace creates a process named name running fn and starts it inside
// the calling kernel callback, exactly where RunUntil would have delivered
// the start wake of a Go called in that callback's place: the body runs
// until its first park before GoInPlace returns. It is the start-side
// counterpart of ResumeFunc, for a callback chain that ends by handing
// its work to a process (an interrupt's entry charge starting its
// handler). It counts one Spawns, ProcWakes and Switches and schedules
// nothing. It panics if called from a process body.
func (k *Kernel) GoInPlace(name string, fn func(p *Proc)) *Proc {
	if k.inProc {
		panic("sim: in-place start from a process body")
	}
	p := k.newProc(name, fn)
	k.stats.ProcWakes++
	k.stats.Switches++
	k.switchTo(p)
	return p
}

// newProc creates a process on a pooled or fresh shell.
func (k *Kernel) newProc(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	var sh *shell
	if n := len(k.pool); n > 0 {
		sh = k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
	} else {
		sh = &shell{k: k}
		sh.next, sh.stop = iter.Pull(sh.run)
		sh.resume = sh.resumeInPlace
		k.stats.Shells++
	}
	sh.p, sh.body = p, fn
	p.shell = sh
	k.live[p] = struct{}{}
	k.stats.Spawns++
	return p
}

// run is the shell coroutine: run the assigned body, then wait in the
// pool for the next one. It returns when Shutdown stops the coroutine.
func (sh *shell) run(yield func(struct{}) bool) {
	sh.yield = yield
	for {
		p := sh.p
		r := sh.exec(p)
		sh.p, sh.body = nil, nil
		p.done = true
		delete(sh.k.live, p)
		switch r.(type) {
		case nil:
		case procAbort:
			return
		default:
			panic(r) // next re-raises it from the event loop
		}
		sh.k.pool = append(sh.k.pool, sh)
		if !yield(struct{}{}) {
			return
		}
	}
}

// exec runs one process body and returns what it panicked with, if
// anything. A process panic is rewritten to carry the origin stack, which
// the re-raise from the event loop would otherwise hide.
func (sh *shell) exec(p *Proc) (r any) {
	defer func() {
		if r = recover(); r != nil {
			if _, isAbort := r.(procAbort); !isAbort {
				r = fmt.Sprintf("process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
	}()
	sh.body(p)
	return nil
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// prepareWait must be called before arming any wake source; it opens a new
// wait generation so that stale wakes from previous waits are ignored.
func (p *Proc) prepareWait() uint64 {
	p.waitGen++
	p.waiting = true
	return p.waitGen
}

// park suspends the process back to the event loop until a wake for the
// current generation resumes it, and returns the reason supplied by the
// waker.
func (p *Proc) park() WakeReason {
	if !p.shell.yield(struct{}{}) {
		panic(procAbort{})
	}
	return p.reason
}

// Suspend parks the process until a kernel callback calls the function
// ResumeFunc returned. It is for callback state machines (dram.Transfer,
// Resource.AcquireThen chains) that run a multi-step operation for the
// process: the process starts the chain, suspends once, and the chain's
// last step resumes it, so the intermediate steps cost no switches.
func (p *Proc) Suspend() {
	p.prepareWait()
	p.suspended = true
	p.park()
}

// Await runs start, which begins a callback chain whose last step calls
// p's ResumeFunc, and parks p until that call: however many charges the
// chain makes, the process parks at most once. A chain whose every step
// ran synchronously, calling the resume function before start returns,
// does not park p at all, just as a process form whose charges were all
// free would not have.
func (p *Proc) Await(start func()) {
	p.prepareWait()
	p.suspended = true
	p.awaiting = true
	start()
	p.awaiting = false
	if p.suspended {
		p.park()
	}
}

// ResumeFunc returns the function that ends p's Suspend or Await. Called from a
// kernel callback, it continues the process inside that callback's event,
// exactly where RunUntil would have delivered a wake scheduled in its
// place: it counts one ProcWakes and one Switches and schedules nothing.
// It panics if p is not suspended or if it is called from a process body
// rather than from the event loop. The function is bound to p's pooled
// coroutine: every Suspend of p may reuse it, but it must not be called
// after p returns.
func (p *Proc) ResumeFunc() func() { return p.shell.resume }

func (sh *shell) resumeInPlace() {
	p, k := sh.p, sh.k
	if p == nil || !p.suspended {
		panic("sim: resume of a process that is not suspended")
	}
	if p.awaiting {
		// The chain finished inside Await's start: p never parked.
		p.suspended, p.waiting = false, false
		return
	}
	if k.inProc {
		panic("sim: resume called from a process body")
	}
	p.suspended = false
	p.waiting = false
	p.reason = WakeDone
	k.stats.ProcWakes++
	k.stats.Switches++
	k.switchTo(p)
}

// Sleep suspends the process for d simulated time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		// Even a zero-length sleep yields, preserving event ordering
		// relative to other work scheduled at the same instant.
		d = 0
	}
	gen := p.prepareWait()
	p.k.scheduleWake(p.k.now.Add(d), p, gen, WakeDone)
	p.park()
}
