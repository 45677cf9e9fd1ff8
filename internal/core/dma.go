package core

import (
	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/sram"
)

// A ringEngine moves MCN messages into and out of the SRAM rings, one job
// at a time in submission order. It is either an MCN-DMA engine (Sec. IV-B)
// — one per host memory channel and one per MCN node, so the CPUs only pay
// descriptor setup — or, with cpu set, a netdev's qdisc service: Transmit
// enqueues (dev_queue_xmit) and the copy runs on one of cpu's cores. The
// qdisc keeps the stack and the forwarding engine out of the ring-full
// retry loop; without it the receive path that must free the opposite
// ring could block on this one, a deadlock Linux's queueing discipline
// prevents by construction.
//
// The engine runs to completion on kernel callbacks rather than in a
// process. Where a process would Sleep, a step schedules the next one with
// After; where it would wait for a bus or a core, it uses AcquireThen. Each
// callback takes the (time, sequence) slot the process's wake would have
// taken, so the simulated event order is exactly the process version's.
// A wait's callback may run before the call that armed it returns, so
// arming a wait is always the last thing a step does. Nothing is allocated
// per job or per step.
type ringEngine struct {
	k    *sim.Kernel
	cpu  *cpu.CPU // qdisc mode: each T1-T3 attempt holds one of its cores
	jobs *sim.Queue[ringJob]
	idle bool // the FIFO ran dry: the next submit schedules a dispatch

	job    ringJob // the running job
	at     ringStep
	pushed bool     // the current T1-T3 attempt landed its message
	start  sim.Time // when the attempt's core was granted (qdisc mode)
	acc    int      // bytes of the host access in flight, accounted on resume
	accWr  bool     // whether that access writes
	pkts   []rxEntry
	xfer   *dram.Transfer

	step func() // e.resume, bound once
	wake func() // e.next, bound once
}

// ringJobKind selects what a job does.
type ringJobKind uint8

const (
	hostTx    ringJobKind = iota // host T1-T3 into port's DIMM RX ring
	hostDrain                    // host R1-R5 over MCN-DMA from port's DIMM TX ring
	dimmTx                       // MCN-side T1-T3 into drv's TX ring
)

type ringJob struct {
	kind ringJobKind
	port *HostPort   // hostTx, hostDrain
	drv  *DimmDriver // dimmTx
	msg  []byte
	st   *McnStamps
	// pooled: msg came from the stack's frame pool and is recycled once
	// the job has consumed (pushed into a ring) or dropped it.
	pooled bool
}

// ringStep is the point a job resumes at.
type ringStep uint8

const (
	atBegin   ringStep = iota
	atAttempt          // T1-T3: a (re)try begins
	atCopy             // the attempt holds its core
	atSpace            // T1 read the ring pointers: check for room
	atMcn              // MCN side: the local DRAM read retired
	atFence            // T2 retired: fence
	atT3               // fence elapsed
	atPush             // T3 retired: the message is in the ring
	atTried            // the attempt ended, pushed or not
	atOnline           // drain: R1 retired, or a re-check found work
	atPop              // drain: the previous copy retired
	atR5               // drain: the tx-poll clear retired
	atDrained
)

// newRingEngine creates an engine; c selects qdisc mode. Like a process
// start, the first dispatch is an event at the current instant, so jobs
// submitted before it runs wait for it rather than for a later submit.
func newRingEngine(k *sim.Kernel, c *cpu.CPU) *ringEngine {
	e := &ringEngine{k: k, cpu: c, jobs: sim.NewQueue[ringJob](k, 0), xfer: dram.NewTransfer()}
	e.step, e.wake = e.resume, e.next
	k.At(k.Now(), e.wake)
	return e
}

// submit queues a job and returns at once: the caller has only programmed
// a descriptor (or enqueued a packet).
func (e *ringEngine) submit(j ringJob) {
	e.jobs.TryPut(j)
	if e.idle {
		e.idle = false
		e.k.At(e.k.Now(), e.wake)
	}
}

// Len returns the number of jobs waiting behind the running one.
func (e *ringEngine) Len() int { return e.jobs.Len() }

// next runs queued jobs until one has to wait; with the FIFO empty the
// engine idles until submit.
func (e *ringEngine) next() {
	for {
		j, ok := e.jobs.TryGet()
		if !ok {
			e.idle = true
			return
		}
		e.job, e.at = j, atBegin
		if !e.advance() {
			return
		}
		e.finish()
	}
}

// resume is every wait's callback: it accounts a retired host access and
// advances the job.
func (e *ringEngine) resume() {
	if e.acc > 0 {
		e.job.port.dimm.hostAccessed(e.acc, e.accWr)
		e.acc = 0
	}
	if e.advance() {
		e.finish()
		e.next()
	}
}

// advance runs the job from e.at until it waits (false) or ends (true).
func (e *ringEngine) advance() bool {
	if e.job.kind == hostDrain {
		return e.drain()
	}
	return e.tx()
}

func (e *ringEngine) finish() {
	if j := &e.job; j.pooled {
		if j.kind == dimmTx {
			j.drv.Stack.RecycleFrameBuf(j.msg)
		} else {
			j.port.drv.Stack.RecycleFrameBuf(j.msg)
		}
	}
	e.job = ringJob{}
}

// hostAccess starts Dimm.HostAccess; resume accounts it once it retires.
func (e *ringEngine) hostAccess(d *Dimm, bytes int, write, writeCombining bool) {
	e.acc, e.accWr = bytes, write
	e.xfer.BusTransfer(d.Global, hostBusBytes(bytes, writeCombining), d.HostLat, write, e.step)
}

// tx runs T1-T3 for a hostTx or dimmTx job: check the ring for room, copy
// the message in, publish it. The host copies over the memory channel: T1
// reads the ring pointers, T2 writes length and packet with write combining
// (or 8-byte uncached stores in the ablation), T3 updates rx-end and sets
// rx-poll. An MCN node reads the packet from its local DRAM and writes it
// into the SRAM over the on-chip interconnect. A full ring is
// NETDEV_TX_BUSY: the attempt gives its core back and retries after
// retryInterval, so a transmitter spinning on a full ring cannot starve
// the drain that would empty it.
func (e *ringEngine) tx() bool {
	j := &e.job
	host := j.kind == hostTx
	var (
		d     *Dimm
		ring  *sram.Ring
		fence sim.Duration
	)
	if host {
		d, ring = j.port.dimm, j.port.dimm.Buf.RX
		fence = j.port.drv.CPU.CyclesDur(j.port.drv.Costs.FenceCycles)
	} else {
		d, ring = j.drv.dimm, j.drv.dimm.Buf.TX
		fence = j.drv.CPU.CyclesDur(j.drv.Costs.FenceCycles)
	}
	need := sram.HeaderBytes + len(j.msg)
	for {
		switch e.at {
		case atBegin:
			if d.InjectChan != nil && d.InjectChan.Message() {
				return true // ECC-detected channel corruption: message discarded
			}
			e.at = atAttempt
		case atAttempt:
			if host && !d.Online() {
				// The DIMM died under us (possibly after this message was
				// queued): drop instead of retrying into a dead ring.
				j.port.drv.Recov.CarrierDrops++
				return true
			}
			e.at = atCopy
			if e.cpu != nil {
				e.cpu.Cores.AcquireThen(e.step)
				return false
			}
		case atCopy:
			e.start = e.k.Now()
			e.at = atSpace
			if host {
				// T1: read rx-start / rx-end (one control line).
				e.hostAccess(d, 64, false, true)
				return false
			}
		case atSpace:
			if ring.Free() < need {
				e.pushed, e.at = false, atTried
				continue
			}
			if host {
				e.at = atFence
				e.hostAccess(d, need, true, !j.port.drv.Opts.UncachedCopies)
				return false
			}
			e.at = atMcn
			e.xfer.Access(j.drv.local, 0x1000_0000, false, len(j.msg), e.step)
			return false
		case atMcn:
			e.at = atFence
			e.k.After(d.mcnAccessTime(need), e.step)
			return false
		case atFence:
			if !host {
				d.McnAccess.Add(e.k.Now(), int64(need))
			}
			// The fence stalls in place: in qdisc mode the attempt already
			// holds a core, and taking a second one could deadlock a
			// single-core processor.
			e.at = atT3
			e.k.After(fence, e.step)
			return false
		case atT3:
			e.at = atPush
			if host {
				e.hostAccess(d, 64, true, true)
				return false
			}
		case atPush:
			// Push re-validates space: a concurrent writer may have won the
			// race while T2 was on the bus.
			e.pushed, e.at = ring.Push(j.msg), atTried
			if e.pushed {
				e.published(d)
			}
		case atTried:
			if e.cpu != nil {
				e.cpu.Cores.Release()
				e.cpu.Busy.AddBusy(e.k.Now().Sub(e.start))
			}
			if e.pushed {
				return true
			}
			if host {
				j.port.drv.TxBusy++
			} else {
				j.drv.TxBusy++
			}
			e.at = atAttempt
			e.k.After(retryInterval, e.step)
			return false
		}
	}
}

// published completes T3 for a message that landed in the ring: record its
// trace metadata, set the poll flag and raise the peer's interrupt on a
// 0->1 edge.
func (e *ringEngine) published(d *Dimm) {
	j, now := &e.job, e.k.Now()
	if j.st != nil {
		j.st.DriverTxEnd = now
	}
	if j.kind == dimmTx {
		j.drv.port.txMeta = append(j.drv.port.txMeta, j.st)
		j.drv.TxMsgs++
		wasIdle := !d.Buf.TxPoll
		d.Buf.TxPoll = true
		if wasIdle && j.drv.Opts.DimmInterrupt {
			d.AssertAlert()
		}
		return
	}
	hd := j.port.drv
	j.port.rxMeta = append(j.port.rxMeta, j.st)
	if hd.ChanTap != nil {
		hd.ChanTap.Frame(now, netstack.TapChanPush, d.Name, j.msg)
	}
	wasIdle := !d.Buf.RxPoll
	d.Buf.RxPoll = true
	if wasIdle {
		d.RaiseRxIRQ()
	}
}

// drain is the mcn5 receive path (R1-R5 over MCN-DMA): the engine copies
// the DIMM's TX ring into host memory, then interrupts the CPU to route
// the packets. A message (or a latched ALERT_N) that raced the tx-poll
// clear is caught by the re-check.
func (e *ringEngine) drain() bool {
	port := e.job.port
	hd, d := port.drv, port.dimm
	for {
		switch e.at {
		case atBegin:
			if port.draining {
				return true
			}
			port.draining = true
			// R1: read tx-start and tx-end.
			e.at = atOnline
			e.hostAccess(d, 64, false, true)
			return false
		case atOnline:
			e.at = atPop
			if !d.Online() {
				e.at = atDrained // deliver what was copied; the watchdog resumes later
			}
		case atPop:
			if d.Buf.TX.Empty() {
				// R5: all consumed; reset tx-poll.
				d.Buf.TxPoll = false
				e.at = atR5
				e.hostAccess(d, 8, true, false)
				return false
			}
			msg := d.Buf.TX.PopWith(hd.getBuf)
			var st *McnStamps
			if len(port.txMeta) > 0 {
				st = port.txMeta[0]
				port.txMeta = port.txMeta[1:]
			}
			if st != nil {
				st.DriverRxStart = e.k.Now()
			}
			e.pkts = append(e.pkts, rxEntry{msg: msg, st: st})
			// R2-R3: the engine reads the message into host memory.
			e.hostAccess(d, sram.HeaderBytes+len(msg), false, true)
			return false
		case atR5:
			e.at = atDrained
			if !d.Buf.TX.Empty() || port.alertPending {
				port.alertPending = false
				e.at = atOnline
			}
		case atDrained:
			port.draining = false
			if pkts := e.pkts; len(pkts) > 0 {
				// The interrupt handler owns this batch.
				e.pkts = nil
				hd.CPU.RaiseIRQ("mcn-dma-rx", func(p *sim.Proc) {
					for _, pk := range pkts {
						hd.CPU.Exec(p, hd.Costs.RxPerMsgCycles)
						hd.forward(p, port, pk.msg, pk.st, true)
					}
				})
			}
			return true
		}
	}
}
