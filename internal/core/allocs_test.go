package core

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

// TestAllocsMcnPingRoundtrip bounds the heap allocations of one host->DIMM
// echo round trip once pools and ARP state are warm: the request crosses
// the DIMM's RX ring and the reply its TX ring, through the polled drain at
// mcn0 and the MCN-DMA engines at mcn5. Each ceiling keeps the headroom
// ethdev's TestAllocsNICRoundtrip has over its measured count (30 over
// 14): mcn0 measures 16 and mcn5 18.
func TestAllocsMcnPingRoundtrip(t *testing.T) {
	for _, c := range []struct {
		level   OptLevel
		ceiling float64
	}{{MCN0, 34}, {MCN5, 38}} {
		t.Run(c.level.String(), func(t *testing.T) {
			fx := newFixture(c.level.Options(), 1, 1)
			defer fx.k.Shutdown()
			done := false
			echo := func(p *sim.Proc) {
				if _, ok := fx.hostStk.Ping(p, fx.mcns[0].ip, 56, sim.Second); !ok {
					t.Error("ping lost")
				}
				done = true
			}
			// Step only until the reply lands: at mcn0 the HR-timer poll
			// never idles, and its ticks are not the round trip's cost.
			ping := func() {
				done = false
				fx.k.Go("ping", echo)
				for !done {
					fx.k.RunUntil(fx.k.Now().Add(sim.Microsecond))
				}
			}
			for i := 0; i < 64; i++ {
				ping() // warm pools and ARP state
			}
			avg := testing.AllocsPerRun(128, ping)
			t.Logf("allocs per echo roundtrip: %.1f", avg)
			if avg > c.ceiling {
				t.Fatalf("%v echo roundtrip allocates %.1f objects, ceiling %.0f", c.level, avg, c.ceiling)
			}
		})
	}
}
