package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestResumeTakesPoppedEventSlot: a process resumed in place by a callback
// continues exactly where a wake scheduled in that callback's place would
// have resumed it. The events around it at the same instant run in the
// same order, what the process schedules after resuming takes the same
// sequence positions, and the kernel pushes and pops the same events.
func TestResumeTakesPoppedEventSlot(t *testing.T) {
	run := func(inPlace bool) (string, KernelStats) {
		k := NewKernel()
		defer k.Shutdown()
		var log []string
		note := func(s string) func() { return func() { log = append(log, fmt.Sprint(k.Now(), ":", s)) } }
		k.At(10, note("before"))
		k.Go("proc", func(p *Proc) {
			if inPlace {
				k.At(10, p.ResumeFunc())
				p.Suspend()
			} else {
				p.Sleep(10)
			}
			note("resumed")()
			k.At(10, note("scheduled-by-proc"))
			p.Sleep(0)
			note("yielded")()
		})
		k.At(10, note("after"))
		k.At(10, note("after2"))
		k.Run()
		return strings.Join(log, " "), k.Stats()
	}
	wantLog, wantStats := run(false)
	gotLog, gotStats := run(true)
	if gotLog != wantLog {
		t.Fatalf("in-place resume order:\n got %s\nwant %s", gotLog, wantLog)
	}
	if gotStats.Pushes != wantStats.Pushes || gotStats.Pops != wantStats.Pops ||
		gotStats.ProcWakes != wantStats.ProcWakes || gotStats.Switches != wantStats.Switches {
		t.Fatalf("stats differ: got %+v, want %+v", gotStats, wantStats)
	}
}

// TestResumeMisusePanics: resuming a process that is not suspended, or
// resuming from a process body instead of the event loop, panics.
func TestResumeMisusePanics(t *testing.T) {
	expectPanic := func(name, want string, setup func(k *Kernel)) {
		t.Helper()
		k := NewKernel()
		defer k.Shutdown()
		setup(k)
		defer func() {
			t.Helper()
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("%s: recovered %v, want a panic containing %q", name, r, want)
			}
		}()
		k.Run()
	}
	expectPanic("sleeping process", "not suspended", func(k *Kernel) {
		k.Go("sleeper", func(p *Proc) {
			k.At(5, p.ResumeFunc())
			p.Sleep(10)
		})
	})
	expectPanic("resumed twice", "not suspended", func(k *Kernel) {
		k.Go("once", func(p *Proc) {
			resume := p.ResumeFunc()
			k.At(5, resume)
			k.At(6, resume)
			p.Suspend()
			p.Sleep(10)
		})
	})
	expectPanic("from a process body", "from a process body", func(k *Kernel) {
		var resume func()
		k.Go("suspended", func(p *Proc) {
			resume = p.ResumeFunc()
			p.Suspend()
		})
		k.Go("caller", func(p *Proc) {
			p.Sleep(1)
			resume()
		})
	})
}

// TestShutdownUnwindsSuspended: a process suspended with no resume pending
// unwinds at Shutdown like any parked process.
func TestShutdownUnwindsSuspended(t *testing.T) {
	k := NewKernel()
	unwound := false
	k.Go("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Suspend()
		t.Error("suspended process continued without a resume")
	})
	k.Run()
	if k.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d before Shutdown, want 1", k.LiveProcs())
	}
	k.Shutdown()
	if !unwound || k.LiveProcs() != 0 {
		t.Fatalf("after Shutdown: unwound=%v LiveProcs=%d", unwound, k.LiveProcs())
	}
}

// TestGoInPlaceTakesStartWakeSlot: a process started in place by a
// callback runs exactly where the start wake of a Go called in that
// callback's place would have started it. The events around it at the same
// instant run in the same order, what the process schedules takes the same
// sequence positions, and the kernel pushes and pops the same events.
func TestGoInPlaceTakesStartWakeSlot(t *testing.T) {
	run := func(inPlace bool) (string, KernelStats) {
		k := NewKernel()
		defer k.Shutdown()
		var log []string
		note := func(s string) func() { return func() { log = append(log, fmt.Sprint(k.Now(), ":", s)) } }
		body := func(p *Proc) {
			note("started")()
			k.At(p.Now(), note("scheduled-by-proc"))
			p.Sleep(0)
			note("yielded")()
		}
		k.At(10, note("before"))
		k.At(10, func() {
			note("raise")()
			if inPlace {
				k.At(10, func() { k.GoInPlace("proc", body) })
			} else {
				k.Go("proc", body)
			}
			k.At(10, note("after-raise"))
		})
		k.At(10, note("after"))
		k.Run()
		return strings.Join(log, " "), k.Stats()
	}
	wantLog, wantStats := run(false)
	gotLog, gotStats := run(true)
	if gotLog != wantLog {
		t.Fatalf("in-place start order:\n got %s\nwant %s", gotLog, wantLog)
	}
	if gotStats != wantStats {
		t.Fatalf("stats differ: got %+v, want %+v", gotStats, wantStats)
	}
}

// TestGoInPlaceFromProcessPanics: only a kernel callback may start a
// process in place; a process body doing so would nest coroutines.
func TestGoInPlaceFromProcessPanics(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	k.Go("starter", func(p *Proc) {
		k.GoInPlace("nested", func(*Proc) {})
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "from a process body") {
			t.Fatalf("recovered %v, want an in-place start panic", r)
		}
	}()
	k.Run()
}

// TestAwaitParksAtMostOnce: a chain that finishes inside Await's start
// does not park the process at all, and one that runs several callbacks
// parks it once, resuming it in the chain's last event.
func TestAwaitParksAtMostOnce(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	var syncAt, asyncAt Time
	var syncSwitches, asyncSwitches uint64
	k.Go("awaiter", func(p *Proc) {
		resume := p.ResumeFunc()
		before := k.Stats().Switches
		p.Await(resume) // every step synchronous
		syncAt, syncSwitches = p.Now(), k.Stats().Switches-before
		before = k.Stats().Switches
		p.Await(func() {
			k.After(5, func() { k.After(7, resume) })
		})
		asyncAt, asyncSwitches = p.Now(), k.Stats().Switches-before
	})
	k.Run()
	if syncAt != 0 || syncSwitches != 0 {
		t.Fatalf("synchronous chain: continued at %v after %d switches, want 0 and 0", syncAt, syncSwitches)
	}
	if asyncAt != 12 || asyncSwitches != 1 {
		t.Fatalf("two-step chain: continued at %v after %d switches, want 12 and 1", asyncAt, asyncSwitches)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("awaiter did not finish: %d live", k.LiveProcs())
	}
}
