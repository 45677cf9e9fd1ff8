// Package mpi is a compact message-passing layer over the simulated TCP
// stack: rank bootstrap over a full mesh of connections, point-to-point
// send/receive, the collectives the NPB kernels need (barrier, broadcast,
// reduce, allreduce, all-to-all), and a roofline compute model that runs
// each rank's memory traffic through its node's DRAM channels.
//
// Running unmodified distributed frameworks is the paper's headline
// property; this layer plays the role OpenMPI plays in the paper — the MCN
// drivers underneath present ordinary sockets, so nothing here knows
// whether a rank lives on a host, an MCN DIMM, or a 10GbE peer.
package mpi

import (
	"encoding/binary"
	"fmt"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Program is the per-rank body of an MPI job.
type Program func(r *Rank)

// FlopsPerCycle is the assumed per-core FP throughput of the roofline
// model (a modest superscalar per Table II: 3-wide, so ~2 flops/cycle).
const FlopsPerCycle = 2

// World is one MPI job.
type World struct {
	K        *sim.Kernel
	eps      []cluster.Endpoint
	ranks    []*Rank
	basePort uint16
	start    sim.Time
	finished int
	done     *sim.Signal
	failed   error
	end      sim.Time
}

// Rank is one MPI process.
type Rank struct {
	W  *World
	ID int
	P  *sim.Proc
	ep cluster.Endpoint

	conns []netstack.Conn // per peer, nil for self

	// Stats.
	BytesSent int64
	MsgsSent  int64
}

// Launch starts a job with one rank per endpoint. basePort must leave room
// for len(eps) consecutive ports. The simulation owner then runs the
// kernel; Done/Elapsed report completion.
func Launch(k *sim.Kernel, eps []cluster.Endpoint, basePort uint16, prog Program) *World {
	w := &World{K: k, eps: eps, basePort: basePort, start: k.Now(), done: k.NewSignal()}
	w.ranks = make([]*Rank, len(eps))
	for i := range eps {
		r := &Rank{W: w, ID: i, ep: eps[i], conns: make([]netstack.Conn, len(eps))}
		w.ranks[i] = r
		i := i
		k.Go(fmt.Sprintf("mpi/rank%d", i), func(p *sim.Proc) {
			r.P = p
			r.bootstrap(p)
			r.Barrier()
			if r.ID == 0 {
				// Time the program region, not the connection mesh
				// bootstrap (mpirun startup is not part of any
				// benchmark's reported time).
				w.start = p.Now()
			}
			prog(r)
			r.Barrier()
			w.finished++
			if w.finished == len(w.ranks) {
				w.end = p.Now()
				w.done.Notify()
			}
		})
	}
	return w
}

// Done reports whether all ranks finished.
func (w *World) Done() bool { return w.finished == len(w.ranks) }

// Elapsed returns the wall time from launch to the last rank finishing (0
// if unfinished).
func (w *World) Elapsed() sim.Duration {
	if !w.Done() {
		return 0
	}
	return w.end.Sub(w.start)
}

// Wait parks p until the job completes (for composite scenarios).
func (w *World) Wait(p *sim.Proc) {
	for !w.Done() {
		w.done.Wait(p)
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// bootstrap builds the connection mesh: rank i accepts from ranks > i and
// connects to ranks < i, identifying itself with a 4-byte hello.
func (r *Rank) bootstrap(p *sim.Proc) {
	w := r.W
	n := len(w.eps)
	port := w.basePort + uint16(r.ID)
	l, err := r.ep.ListenConn(port)
	if err != nil {
		panic(fmt.Sprintf("mpi rank %d: %v", r.ID, err))
	}
	pending := n - 1 - r.ID
	accepted := 0
	acceptDone := w.K.NewSignal()
	if pending > 0 {
		w.K.Go(fmt.Sprintf("mpi/rank%d/accept", r.ID), func(ap *sim.Proc) {
			for i := 0; i < pending; i++ {
				c, err := l.AcceptConn(ap)
				if err != nil {
					panic(err)
				}
				var hello [4]byte
				if !netstack.ReadFull(ap, c, hello[:]) {
					panic("mpi: connection closed mid-message")
				}
				peer := int(binary.LittleEndian.Uint32(hello[:]))
				r.conns[peer] = c
				accepted++
				acceptDone.Notify()
			}
		})
	}
	for j := 0; j < r.ID; j++ {
		c, err := r.ep.DialConn(p, w.eps[j].IP, w.basePort+uint16(j))
		if err != nil {
			panic(fmt.Sprintf("mpi rank %d -> %d: %v", r.ID, j, err))
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], uint32(r.ID))
		if err := c.Send(p, hello[:]); err != nil {
			panic(err)
		}
		r.conns[j] = c
	}
	for accepted < pending {
		acceptDone.Wait(p)
	}
	l.Close()
}

const (
	kindSynthetic = 0
	kindData      = 1
)

// Send transmits n synthetic payload bytes to rank dst.
func (r *Rank) Send(dst, n int) {
	r.send(dst, kindSynthetic, n, nil)
}

// SendData transmits a real payload to rank dst.
func (r *Rank) SendData(dst int, data []byte) {
	r.send(dst, kindData, len(data), data)
}

func (r *Rank) send(dst, kind, n int, data []byte) {
	if dst == r.ID {
		panic("mpi: send to self")
	}
	c := r.conns[dst]
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(kind))
	if err := c.Send(r.P, hdr[:]); err != nil {
		panic(err)
	}
	if kind == kindData {
		if err := c.Send(r.P, data); err != nil {
			panic(err)
		}
	} else if n > 0 {
		if err := c.SendN(r.P, n); err != nil {
			panic(err)
		}
	}
	r.BytesSent += int64(n)
	r.MsgsSent++
}

// Recv receives the next message from rank src, returning its payload
// size; synthetic payloads are discarded.
func (r *Rank) Recv(src int) int {
	n, _ := r.recv(src, false)
	return n
}

// RecvData receives the next message from src and returns its bytes (a
// synthetic message returns a zero-filled buffer).
func (r *Rank) RecvData(src int) []byte {
	_, data := r.recv(src, true)
	return data
}

func (r *Rank) recv(src int, want bool) (int, []byte) {
	if src == r.ID {
		panic("mpi: recv from self")
	}
	c := r.conns[src]
	var hdr [8]byte
	if !netstack.ReadFull(r.P, c, hdr[:]) {
		panic("mpi: connection closed mid-message")
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	kind := binary.LittleEndian.Uint32(hdr[4:8])
	if kind == kindData || want {
		buf := make([]byte, n)
		if !netstack.ReadFull(r.P, c, buf) {
			panic("mpi: connection closed mid-message")
		}
		return n, buf
	}
	got := c.RecvN(r.P, n)
	if got != n {
		panic("mpi: short synthetic message")
	}
	return n, nil
}

// Sendrecv exchanges messages with two (possibly different) partners
// without deadlocking: the send runs in a helper process.
func (r *Rank) Sendrecv(dst, n, src int) int {
	done := r.W.K.NewSignal()
	finished := false
	r.W.K.Go(fmt.Sprintf("mpi/rank%d/sr", r.ID), func(p *sim.Proc) {
		c := r.conns[dst]
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(kindSynthetic))
		if err := c.Send(p, hdr[:]); err != nil {
			panic(err)
		}
		if n > 0 {
			if err := c.SendN(p, n); err != nil {
				panic(err)
			}
		}
		r.BytesSent += int64(n)
		r.MsgsSent++
		finished = true
		done.Notify()
	})
	got := r.Recv(src)
	for !finished {
		done.Wait(r.P)
	}
	return got
}

// highestBit returns the highest set power of two in v (0 for v==0).
func highestBit(v int) int {
	h := 0
	for m := 1; m <= v; m <<= 1 {
		if v&m != 0 {
			h = m
		}
	}
	return h
}

// bcastTree runs a binomial broadcast in relative coordinates: rank rel
// receives once from its parent (rel without its highest bit), then sends
// to its children (rel|m for powers m above its highest bit).
func (r *Rank) bcastTree(root, n int) {
	size := r.W.Size()
	rel := (r.ID - root + size) % size
	if rel != 0 {
		parent := rel &^ highestBit(rel)
		r.Recv((parent + root) % size)
	}
	first := 1
	if rel != 0 {
		first = highestBit(rel) << 1
	}
	for m := first; rel|m < size && rel&m == 0; m <<= 1 {
		r.Send((rel|m+root)%size, n)
	}
}

// gatherTree is the mirror image: receive from children (largest first is
// not required; increasing order keeps matching deterministic), then send
// to the parent.
func (r *Rank) gatherTree(root, n int) {
	size := r.W.Size()
	rel := (r.ID - root + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			r.Send((rel&^mask+root)%size, n)
			return
		}
		src := rel | mask
		if src < size {
			r.Recv((src + root) % size)
		}
	}
}

// SendrecvData exchanges real payloads with two (possibly different)
// partners without deadlocking.
func (r *Rank) SendrecvData(dst int, data []byte, src int) []byte {
	done := r.W.K.NewSignal()
	finished := false
	r.W.K.Go(fmt.Sprintf("mpi/rank%d/srd", r.ID), func(p *sim.Proc) {
		c := r.conns[dst]
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(kindData))
		if err := c.Send(p, hdr[:]); err != nil {
			panic(err)
		}
		if err := c.Send(p, data); err != nil {
			panic(err)
		}
		r.BytesSent += int64(len(data))
		r.MsgsSent++
		finished = true
		done.Notify()
	})
	got := r.RecvData(src)
	for !finished {
		done.Wait(r.P)
	}
	return got
}

// Barrier synchronizes all ranks (binomial gather to 0, then release).
func (r *Rank) Barrier() {
	if r.W.Size() == 1 {
		return
	}
	r.gatherTree(0, 1)
	r.bcastTree(0, 1)
}

// Bcast broadcasts n bytes from root along a binomial tree.
func (r *Rank) Bcast(root, n int) {
	if r.W.Size() == 1 {
		return
	}
	r.bcastTree(root, n)
}

// Reduce gathers n-byte contributions to root along a binomial tree (the
// reduction arithmetic itself is charged via Compute by callers that care).
func (r *Rank) Reduce(root, n int) {
	if r.W.Size() == 1 {
		return
	}
	r.gatherTree(root, n)
}

// Allreduce is Reduce to 0 followed by Bcast from 0.
func (r *Rank) Allreduce(n int) {
	r.Reduce(0, n)
	r.Bcast(0, n)
}

// Alltoall exchanges n bytes with every other rank using a rotation of
// pairwise send/receives.
func (r *Rank) Alltoall(n int) {
	size := r.W.Size()
	for off := 1; off < size; off++ {
		dst := (r.ID + off) % size
		src := (r.ID - off + size) % size
		r.Sendrecv(dst, n, src)
	}
}

// computeQuantum is the scheduler time slice of a compute phase: the core
// is released between quanta so kernel work (driver qdisc, softirq packet
// processing) interleaves with user computation the way timer-tick
// preemption interleaves it on a real OS. Without this, a long compute
// phase on a fully subscribed node starves the network stack and every
// message stalls until the phase ends.
const computeQuantum = 500 * sim.Microsecond

// Compute charges a roofline compute phase: the rank's core is held for
// max(flops time, memory time), with the memory term streamed through the
// node's DRAM channels so that ranks sharing channels contend. The phase
// is preemptible at computeQuantum granularity.
func (r *Rank) Compute(flops, bytes int64) {
	n := r.ep.Node
	cpuTime := sim.Cycles(flops/FlopsPerCycle+1, n.CPU.Freq)
	slices := int64(cpuTime/computeQuantum) + 1
	if memSlices := bytes / (12 << 20); memSlices > slices {
		slices = memSlices // keep memory bursts to ~0.5ms at channel rate
	}
	sliceFlopsTime := sim.Duration(int64(cpuTime) / slices)
	sliceBytes := bytes / slices
	for i := int64(0); i < slices; i++ {
		n.CPU.ExecWhile(r.P, func() {
			start := r.P.Now()
			if sliceBytes > 0 {
				n.MemStream(r.P, sliceBytes, false)
			}
			if elapsed := r.P.Now().Sub(start); sliceFlopsTime > elapsed {
				r.P.Sleep(sliceFlopsTime - elapsed)
			}
		})
	}
}

// Node returns the rank's node (for workload-specific accounting).
func (r *Rank) Node() *cluster.Endpoint { return &r.ep }
