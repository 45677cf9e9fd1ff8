package mpi

import (
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

func TestHelloOnEthCluster(t *testing.T) {
	var order []int
	_, k := ethWorldCfg(t, 4, func(r *Rank) {
		if r.ID != 0 {
			r.Send(0, 8)
		} else {
			for i := 1; i < 4; i++ {
				r.Recv(i)
				order = append(order, i)
			}
		}
	})
	if len(order) != 3 {
		t.Fatalf("rank0 heard %v", order)
	}
	k.Shutdown()
}

func TestSendDataIntegrity(t *testing.T) {
	var got []byte
	_, k := ethWorldCfg(t, 2, func(r *Rank) {
		if r.ID == 0 {
			r.SendData(1, []byte("payload-check"))
		} else {
			got = r.RecvData(0)
		}
	})
	if string(got) != "payload-check" {
		t.Fatalf("got %q", got)
	}
	k.Shutdown()
}

func TestBarrierSynchronizes(t *testing.T) {
	var minAfter, maxBefore sim.Time
	maxBefore = -1
	_, k := ethWorldCfg(t, 4, func(r *Rank) {
		// Ranks arrive at wildly different times.
		r.P.Sleep(sim.Duration(r.ID) * sim.Millisecond)
		if t := r.P.Now(); t > maxBefore {
			maxBefore = t
		}
		r.Barrier()
		if t := r.P.Now(); minAfter == 0 || t < minAfter {
			minAfter = t
		}
	})
	if minAfter < maxBefore {
		t.Fatalf("a rank left the barrier (%v) before the last arrived (%v)", minAfter, maxBefore)
	}
	k.Shutdown()
}

func TestCollectives(t *testing.T) {
	counts := make([]int64, 8)
	_, k := ethWorldCfg(t, 8, func(r *Rank) {
		r.Bcast(0, 4096)
		r.Reduce(0, 4096)
		r.Allreduce(512)
		r.Alltoall(2048)
		counts[r.ID] = r.BytesSent
	})
	// Every rank participates in the all-to-all: at least 7*2048 bytes
	// sent by each (plus tree traffic for some).
	for id, c := range counts {
		if c < 7*2048 {
			t.Fatalf("rank %d sent only %d bytes", id, c)
		}
	}
	k.Shutdown()
}

func TestComputeRoofline(t *testing.T) {
	// A flop-heavy phase should take ~flops/(2*freq); a memory-heavy
	// phase should take ~bytes/bandwidth.
	var cpuBound, memBound sim.Duration
	_, k := ethWorldCfg(t, 1, func(r *Rank) {
		start := r.P.Now()
		r.Compute(3_400_000_000, 0) // 1e9 cycles @3.4GHz / 2 flops = 0.5s
		cpuBound = r.P.Now().Sub(start)
		start = r.P.Now()
		r.Compute(0, 256<<20) // 256MB over 2 channels
		memBound = r.P.Now().Sub(start)
	})
	if cpuBound < 400*sim.Millisecond || cpuBound > 600*sim.Millisecond {
		t.Fatalf("cpu-bound phase took %v, want ~0.5s", cpuBound)
	}
	// 256MB over 2x25.6GB/s ~ 5.2ms (plus row overheads).
	if memBound < 4*sim.Millisecond || memBound > 12*sim.Millisecond {
		t.Fatalf("mem-bound phase took %v, want ~5-7ms", memBound)
	}
	k.Shutdown()
}

func TestMPIOnMcnServer(t *testing.T) {
	// The headline property: the same MPI program runs unchanged on an
	// MCN server, ranks on the host and on MCN DIMMs.
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN0.Options())
	sum := 0
	w := Launch(k, s.Endpoints(), 7000, func(r *Rank) {
		if r.ID == 0 {
			for i := 1; i < 3; i++ {
				d := r.RecvData(i)
				sum += int(d[0])
			}
		} else {
			r.SendData(0, []byte{byte(r.ID * 10)})
		}
	})
	runUntilDone(k, w, 10*sim.Second)
	if !w.Done() {
		t.Fatal("MPI on MCN server did not finish")
	}
	if sum != 30 {
		t.Fatalf("sum=%d, want 30", sum)
	}
	k.Shutdown()
}

func TestMcnToMcnMPIMessage(t *testing.T) {
	// Rank 1 and 2 both live on MCN DIMMs; their traffic must transit the
	// host forwarding engine (F3).
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN0.Options())
	var got []byte
	w := Launch(k, s.McnEndpoints(), 7000, func(r *Rank) {
		if r.ID == 0 {
			r.SendData(1, []byte("dimm-to-dimm"))
		} else {
			got = r.RecvData(0)
		}
	})
	runUntilDone(k, w, 10*sim.Second)
	if !w.Done() {
		t.Fatal("job did not finish")
	}
	if string(got) != "dimm-to-dimm" {
		t.Fatalf("got %q", got)
	}
	if s.Host.Driver.RelayedDimm == 0 {
		t.Fatal("no F3 relays recorded; traffic did not go through the host")
	}
	k.Shutdown()
}

// runUntilDone steps k in 1ms slices until w finishes or the limit: an
// MCN server polls at mcn0, so its event queue never drains on its own and
// one long RunUntil would simulate the whole cap.
func runUntilDone(k *sim.Kernel, w *World, limit sim.Duration) {
	for end := k.Now().Add(limit); !w.Done() && k.Now() < end; {
		k.RunFor(sim.Millisecond)
	}
}

// ethWorldCfg launches prog on an n-node 10GbE cluster and runs to
// completion.
func ethWorldCfg(t *testing.T, n int, prog Program) (*World, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel()
	c := newEthCluster(k, n)
	w := Launch(k, c.Endpoints(), 7000, prog)
	k.RunUntil(sim.Time(60 * sim.Second))
	if !w.Done() {
		t.Fatalf("MPI job with %d ranks did not finish", n)
	}
	return w, k
}

func newEthCluster(k *sim.Kernel, n int) *cluster.EthCluster {
	return cluster.NewEthCluster(k, n, node.HostConfig(""))
}

func TestCollectivesNonPowerOfTwo(t *testing.T) {
	// Tree collectives must be correct for rank counts that are not
	// powers of two and for non-zero roots.
	for _, n := range []int{3, 5, 6, 7} {
		n := n
		var sum int
		_, k := ethWorldCfg(t, n, func(r *Rank) {
			r.Barrier()
			r.Bcast(n-1, 128) // broadcast from the last rank
			r.Reduce(1, 64)   // reduce to rank 1
			r.Allreduce(32)
			r.Barrier()
			if r.ID == 0 {
				sum++
			}
		})
		if sum != 1 {
			t.Fatalf("n=%d: rank 0 body ran %d times", n, sum)
		}
		k.Shutdown()
	}
}

func TestAlltoallConservesMessages(t *testing.T) {
	const n = 5
	counts := make([]int64, n)
	_, k := ethWorldCfg(t, n, func(r *Rank) {
		before := r.MsgsSent
		r.Alltoall(1000)
		counts[r.ID] = r.MsgsSent - before
	})
	for id, c := range counts {
		if c != n-1 {
			t.Fatalf("rank %d sent %d messages in alltoall, want %d", id, c, n-1)
		}
	}
	k.Shutdown()
}

func TestSendrecvDataRoundTrip(t *testing.T) {
	var got string
	_, k := ethWorldCfg(t, 2, func(r *Rank) {
		if r.ID == 0 {
			reply := r.SendrecvData(1, []byte("ping-data"), 1)
			got = string(reply)
		} else {
			msg := r.RecvData(0)
			r.SendData(0, append([]byte("echo:"), msg...))
		}
	})
	if got != "echo:ping-data" {
		t.Fatalf("got %q", got)
	}
	k.Shutdown()
}
