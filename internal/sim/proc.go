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
	done    bool
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
}

// Go creates a process named name running fn and schedules it to start at
// the current simulated time. It may be called before Run or from within any
// running process or event callback.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	var sh *shell
	if n := len(k.pool); n > 0 {
		sh = k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
	} else {
		sh = &shell{k: k}
		sh.next, sh.stop = iter.Pull(sh.run)
		k.stats.Shells++
	}
	sh.p, sh.body = p, fn
	p.shell = sh
	k.live[p] = struct{}{}
	k.stats.Spawns++
	// The start is delivered like a wake so it obeys event ordering.
	p.waiting = true
	k.scheduleWake(k.now, p, p.waitGen, WakeDone)
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

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

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

// Yield lets every other event scheduled at the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
