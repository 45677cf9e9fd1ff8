package dram

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/mcn-arch/mcn/internal/sim"
)

func TestBusTransferContendsWithAccess(t *testing.T) {
	// SRAM window traffic and regular DRAM traffic share the channel bus:
	// running both concurrently must be slower than either alone.
	solo := func(bus bool) sim.Duration {
		k := sim.NewKernel()
		ch := NewChannel(k, DDR4_3200())
		var end sim.Time
		k.Go("x", func(p *sim.Proc) {
			if bus {
				ch.BusTransfer(p, 1<<20, 40*sim.Nanosecond, false)
			} else {
				ch.Read(p, 0, 1<<20)
			}
			end = p.Now()
		})
		k.Run()
		return sim.Duration(end)
	}
	both := func() sim.Duration {
		k := sim.NewKernel()
		ch := NewChannel(k, DDR4_3200())
		var e1, e2 sim.Time
		k.Go("bus", func(p *sim.Proc) { ch.BusTransfer(p, 1<<20, 40*sim.Nanosecond, false); e1 = p.Now() })
		k.Go("mem", func(p *sim.Proc) { ch.Read(p, 0, 1<<20); e2 = p.Now() })
		k.Run()
		if e2 > e1 {
			e1 = e2
		}
		return sim.Duration(e1)
	}
	sBus, sMem, b := solo(true), solo(false), both()
	if b <= sBus || b <= sMem {
		t.Fatalf("concurrent %v should exceed solo bus %v and solo mem %v", b, sBus, sMem)
	}
	// And it should be roughly the sum (single bus).
	if b < (sBus+sMem)*8/10 {
		t.Fatalf("concurrent %v implausibly fast vs %v + %v", b, sBus, sMem)
	}
}

func TestBusTransferLatencyNotOnBus(t *testing.T) {
	// The device latency must not serialize across transfers: two
	// transfers with huge latency overlap their latency portions.
	lat := 10 * sim.Microsecond
	k := sim.NewKernel()
	ch := NewChannel(k, DDR4_3200())
	var last sim.Time
	for i := 0; i < 2; i++ {
		k.Go("t", func(p *sim.Proc) {
			ch.BusTransfer(p, 64, lat, true)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	k.Run()
	// Serialized latencies would take >= 20us; overlapped ~10us.
	if sim.Duration(last) > lat+lat/2 {
		t.Fatalf("device latency serialized on the bus: %v", last)
	}
}

func TestAccessTimeMonotonicProperty(t *testing.T) {
	// Property: larger accesses never finish sooner.
	f := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw)%65536+1, int(bRaw)%65536+1
		if a > b {
			a, b = b, a
		}
		run := func(n int) sim.Duration {
			k := sim.NewKernel()
			ch := NewChannel(k, DDR4_3200())
			var end sim.Time
			k.Go("r", func(p *sim.Proc) { ch.Read(p, 0, n); end = p.Now() })
			k.Run()
			return sim.Duration(end)
		}
		return run(a) <= run(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigsSane(t *testing.T) {
	for _, cfg := range []Config{DDR4_3200(), DDR3_1066()} {
		if cfg.PeakBandwidth() <= 0 || cfg.BurstTime() <= 0 || cfg.Banks <= 0 {
			t.Fatalf("config %s broken: %+v", cfg.Name, cfg)
		}
		// A 64B burst must be faster than a row miss cycle.
		if cfg.BurstTime() > cfg.TRP+cfg.TRCD+cfg.TCL {
			t.Fatalf("%s: burst slower than row cycle", cfg.Name)
		}
	}
}

// transferOps is a mixed access sequence: row hits and misses, a request
// spanning a row boundary, SRAM-window bus transfers and empty requests.
var transferOps = []struct {
	bus   bool
	addr  uint64
	bytes int
	write bool
}{
	{false, 0, 100, false},
	{false, 8100, 300, true}, // crosses into the next row
	{true, 0, 64, true},
	{false, 8192 * 16, 64, false}, // same bank, other row: a miss
	{true, 0, 0, false},
	{false, 64, 0, true},
	{false, 64, 4096, false},
	{true, 0, 9000, false},
}

// refAccess and refBusTransfer are the process loops Channel.Access and
// Channel.BusTransfer ran before they became Transfer wrappers: one bus
// acquire and one sleep per row chunk, each a process park. They are the
// reference the Transfer state machine must match event for event.
func refAccess(c *Channel, p *sim.Proc, addr uint64, write bool, bytes int) {
	if bytes <= 0 {
		return
	}
	end := addr + uint64(bytes)
	for addr < end {
		n := c.rowChunk(addr, end)
		c.bus.Acquire(p)
		busy, bursts := c.prepRow(addr, n)
		p.Sleep(busy)
		c.retire(busy, bursts, write)
		addr += uint64(n)
	}
}

func refBusTransfer(c *Channel, p *sim.Proc, bytes int, deviceLat sim.Duration, write bool) {
	if bytes <= 0 {
		return
	}
	busy, bursts := c.busBursts(bytes)
	if deviceLat > 0 {
		p.Sleep(deviceLat)
	}
	c.bus.Acquire(p)
	p.Sleep(busy)
	c.retire(busy, bursts, write)
}

// TestTransferMatchesProcess runs transferOps three ways, each on its own
// channel next to an identical rival: through the reference process loops,
// through the Channel.Access/BusTransfer wrappers, and through a bare
// Transfer driven by callbacks. Every completion time, the final time and
// every counter must match the reference, and the wrappers must push and
// pop exactly the reference's events.
func TestTransferMatchesProcess(t *testing.T) {
	const (
		reference = iota
		wrapper
		callbacks
	)
	run := func(mode int) ([]any, sim.KernelStats) {
		k := sim.NewKernel()
		defer k.Shutdown()
		ch := NewChannel(k, DDR4_3200())
		access := func(p *sim.Proc, addr uint64, write bool, bytes int) {
			if mode == reference {
				refAccess(ch, p, addr, write, bytes)
			} else {
				ch.Access(p, addr, write, bytes)
			}
		}
		// The rival flips bank 0 between two rows, so a row's hit or miss
		// depends on when the bus is granted, not when it is requested.
		k.Go("rival", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				access(p, uint64(i%2)*8192*16, i%2 == 0, 2048)
			}
		})
		var ends []sim.Time
		if mode == callbacks {
			x := NewTransfer()
			i := 0
			var next func()
			next = func() {
				if i > 0 {
					ends = append(ends, k.Now())
				}
				if i == len(transferOps) {
					return
				}
				o := transferOps[i]
				i++
				if o.bus {
					x.BusTransfer(ch, o.bytes, 40*sim.Nanosecond, o.write, next)
				} else {
					x.Access(ch, o.addr, o.write, o.bytes, next)
				}
			}
			k.At(k.Now(), next) // the slot the process's start takes
		} else {
			k.Go("ops", func(p *sim.Proc) {
				for _, o := range transferOps {
					switch {
					case !o.bus:
						access(p, o.addr, o.write, o.bytes)
					case mode == reference:
						refBusTransfer(ch, p, o.bytes, 40*sim.Nanosecond, o.write)
					default:
						ch.BusTransfer(p, o.bytes, 40*sim.Nanosecond, o.write)
					}
					ends = append(ends, p.Now())
				}
			})
		}
		k.Run()
		return []any{ends, k.Now(), ch.RowHits, ch.RowMiss, ch.Reads, ch.Writes, ch.Bytes.Total, ch.BusyTime.Busy}, k.Stats()
	}
	want, refStats := run(reference)
	for _, mode := range []int{wrapper, callbacks} {
		if got, _ := run(mode); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mode %d diverges from the reference process loops:\n got %v\nwant %v", mode, got, want)
		}
	}
	_, st := run(wrapper)
	if st.Pushes != refStats.Pushes || st.Pops != refStats.Pops {
		t.Fatalf("wrappers pushed/popped %d/%d events, reference %d/%d", st.Pushes, st.Pops, refStats.Pushes, refStats.Pops)
	}
	if st.Switches >= refStats.Switches {
		t.Fatalf("wrappers took %d switches, reference %d: want fewer", st.Switches, refStats.Switches)
	}
}

func TestTransferAllocs(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	ch := NewChannel(k, DDR4_3200())
	x := NewTransfer()
	done := func() {}
	cycle := func() {
		x.Access(ch, 8000, true, 1024, done)
		k.Run()
		x.BusTransfer(ch, 512, 40*sim.Nanosecond, false, done)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(256, cycle); avg != 0 {
		t.Fatalf("Transfer allocates %.2f objects per access pair, want 0", avg)
	}
}

func TestAccessWrapperAllocs(t *testing.T) {
	// A process looping over the wrappers reuses the channel's pooled
	// Transfer: no allocation per access.
	k := sim.NewKernel()
	defer k.Shutdown()
	ch := NewChannel(k, DDR4_3200())
	k.Go("loop", func(p *sim.Proc) {
		for {
			ch.Access(p, 8000, true, 1024)
			ch.BusTransfer(p, 512, 40*sim.Nanosecond, false)
		}
	})
	cycle := func() { k.RunFor(sim.Microsecond) }
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(256, cycle); avg != 0 {
		t.Fatalf("Access/BusTransfer allocate %.2f objects per microsecond, want 0", avg)
	}
}
