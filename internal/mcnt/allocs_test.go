package mcnt

import (
	"runtime"
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

// TestAllocsMcntDataFrame runs a warm host<->DIMM request/response stream
// at mcn5 (200-byte requests, 3000-byte responses) and requires the data
// path to allocate nothing per frame beyond the kernel's record of each
// process spawned (the MCN-DMA batch handler's, which enters the stack):
// frames are pool buffers, each frame's charges, lock and device steps
// run on a pooled charge sequence and transmit operation, and the one
// copy a link keeps goes back to the pool when an ack covers it. It
// measures 0.000 per frame, so the ceiling is 0.
func TestAllocsMcntDataFrame(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k, s, f := newFabric(t, 1)
	defer k.Shutdown()
	const reqB, respB = 200, 3000
	readFull := func(c *Conn, p *sim.Proc, buf []byte) bool {
		for n := 0; n < len(buf); {
			m, ok := c.Recv(p, buf[n:])
			if !ok {
				return false
			}
			n += m
		}
		return true
	}
	k.Go("server", func(p *sim.Proc) {
		ln, _ := f.Listen(s.Mcns[0].Node, 5200)
		nc, err := ln.AcceptConn(p)
		if err != nil {
			t.Error(err)
			return
		}
		c := nc.(*Conn)
		req, resp := make([]byte, reqB), make([]byte, respB)
		for readFull(c, p, req) {
			c.Send(p, resp)
		}
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := f.Dial(p, s.Host.Node, s.Mcns[0].IP, 5200)
		if err != nil {
			t.Error(err)
			return
		}
		req, resp := make([]byte, reqB), make([]byte, respB)
		for {
			c.Send(p, req)
			if !readFull(c, p, resp) {
				return
			}
		}
	})
	k.RunFor(5 * sim.Millisecond)
	frames0, spawns0 := f.DataFrames, k.Stats().Spawns
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.RunFor(10 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	n, allocs, spawns := f.DataFrames-frames0, after.Mallocs-before.Mallocs, k.Stats().Spawns-spawns0
	per := float64(int64(allocs)-int64(spawns)) / float64(n)
	t.Logf("%d data frames: %d allocations, %d process spawns (%.3f per frame beyond the spawns)", n, allocs, spawns, per)
	if n < 1000 {
		t.Fatalf("only %d data frames in the window", n)
	}
	if per > 0 {
		t.Fatalf("%.3f allocations per data frame beyond the %d process records, ceiling 0", per, spawns)
	}
}
