package dram

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

func TestPeakBandwidth(t *testing.T) {
	cfg := DDR4_3200()
	if bw := cfg.PeakBandwidth(); bw != 25.6e9 {
		t.Fatalf("DDR4-3200 peak = %g, want 25.6e9", bw)
	}
	// One 64B burst at 25.6GB/s is 2.5ns.
	if bt := cfg.BurstTime(); bt != 2500*sim.Picosecond {
		t.Fatalf("burst time = %v, want 2.5ns", bt)
	}
}

func TestSingleAccessLatency(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, DDR4_3200())
	var lat sim.Duration
	k.Go("r", func(p *sim.Proc) {
		start := p.Now()
		ch.Read(p, 0, 64)
		lat = p.Now().Sub(start)
	})
	k.Run()
	// First access is a row miss: tRP+tRCD+tCL+burst = 3*13.75+2.5ns.
	want := 3*13750*sim.Picosecond + 2500*sim.Picosecond
	if lat != want {
		t.Fatalf("cold access latency = %v, want %v", lat, want)
	}
	if ch.RowMiss != 1 || ch.RowHits != 0 {
		t.Fatalf("hits=%d miss=%d", ch.RowHits, ch.RowMiss)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, DDR4_3200())
	var missLat, hitLat sim.Duration
	k.Go("r", func(p *sim.Proc) {
		start := p.Now()
		ch.Read(p, 1<<20, 64)
		missLat = p.Now().Sub(start)
		start = p.Now()
		ch.Read(p, 1<<20, 64) // same line: row hit
		hitLat = p.Now().Sub(start)
	})
	k.Run()
	if hitLat >= missLat {
		t.Fatalf("hit %v should beat miss %v", hitLat, missLat)
	}
	if ch.RowHits != 1 {
		t.Fatalf("hits=%d", ch.RowHits)
	}
}

func TestStreamingApproachesPeakBandwidth(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, DDR4_3200())
	const total = 1 << 20 // 1MB sequential
	k.Go("stream", func(p *sim.Proc) {
		ch.Read(p, 0, total)
	})
	k.Run()
	bw := ch.Bytes.Rate()
	peak := ch.cfg.PeakBandwidth()
	if bw < 0.7*peak || bw > peak {
		t.Fatalf("streaming bandwidth %.3g outside (0.7..1.0)x peak %.3g", bw, peak)
	}
}

func TestTwoReadersShareBandwidth(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, DDR4_3200())
	const each = 1 << 19
	done := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Go("s", func(p *sim.Proc) {
			ch.Read(p, uint64(i)<<30, each)
			done[i] = p.Now()
		})
	}
	k.Run()

	// Reference: a single reader moving the same total bytes.
	k2 := sim.NewKernel()
	ch2 := NewChannel(k2, DDR4_3200())
	var solo sim.Time
	k2.Go("s", func(p *sim.Proc) {
		ch2.Read(p, 0, 2*each)
		solo = p.Now()
	})
	k2.Run()

	last := done[0]
	if done[1] > last {
		last = done[1]
	}
	// Sharing one bus cannot be faster than a single stream of the same
	// volume, and should not be more than ~2.5x slower.
	if last < solo {
		t.Fatalf("shared %v finished before solo %v", last, solo)
	}
	if last > solo*5/2 {
		t.Fatalf("contention too costly: shared %v vs solo %v", last, solo)
	}
}

func TestBytesAccounting(t *testing.T) {
	k := sim.NewKernel()
	ch := NewChannel(k, DDR4_3200())
	k.Go("w", func(p *sim.Proc) {
		ch.Write(p, 0, 100) // rounds to 2 bursts but counts 100 bytes
		ch.Read(p, 4096, 64)
	})
	k.Run()
	// 100 bytes round up to 2 bursts (128B of bus traffic) plus one 64B read.
	if ch.Bytes.Total != 192 {
		t.Fatalf("bytes=%d, want 192", ch.Bytes.Total)
	}
	if ch.Writes != 2 || ch.Reads != 1 {
		t.Fatalf("writes=%d reads=%d", ch.Writes, ch.Reads)
	}
}

func TestLocalChannelsAreIndependent(t *testing.T) {
	// The key MCN property: accesses on different channels do not contend.
	k := sim.NewKernel()
	a := NewChannel(k, DDR4_3200())
	b := NewChannel(k, DDR4_3200())
	var ta, tb sim.Time
	k.Go("a", func(p *sim.Proc) { a.Read(p, 0, 1<<18); ta = p.Now() })
	k.Go("b", func(p *sim.Proc) { b.Read(p, 0, 1<<18); tb = p.Now() })
	k.Run()
	if ta != tb {
		t.Fatalf("independent channels finished at %v and %v", ta, tb)
	}
	k2 := sim.NewKernel()
	c := NewChannel(k2, DDR4_3200())
	var tshared sim.Time
	k2.Go("a", func(p *sim.Proc) { c.Read(p, 0, 1<<18) })
	k2.Go("b", func(p *sim.Proc) { c.Read(p, 1<<30, 1<<18); tshared = p.Now() })
	k2.Run()
	if tshared <= ta {
		t.Fatalf("shared channel (%v) should be slower than private (%v)", tshared, ta)
	}
}
