package core

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/sram"
	"github.com/mcn-arch/mcn/internal/stats"
)

// DimmDriver is the MCN-side driver: the single virtual Ethernet interface
// of an MCN node (Sec. III-B). Transmit performs T1-T3 into the SRAM TX
// ring through the MCN processor's memory controller; the receive path is
// driven by the MCN interface's hardware interrupt and copies packets from
// the RX ring into kernel memory with memcpy (Sec. III-A).
type DimmDriver struct {
	CPU   *cpu.CPU
	Stack *netstack.Stack
	Opts  Options
	Costs DriverCosts

	dimm  *Dimm
	local *dram.Channel // the MCN node's private memory channel
	port  *HostPort     // the host-side peer (for MAC identity)
	dma   *ringEngine   // MCN-DMA mode

	// ChanTap, when set, observes every IRQ-drain pop from this node's
	// SRAM RX ring as netstack.TapDimmPop and every T3 push into its TX
	// ring as netstack.TapDimmPush, named by DIMM.
	ChanTap netstack.Tap
	// qdisc performs T1-T3 on a core of the node when MCN-DMA is off.
	qdisc *ringEngine
	// rxq implements receive packet steering: the IRQ drain only copies
	// messages out of the SRAM; protocol processing is spread across
	// per-flow queues serviced on different cores (Linux RPS), keeping
	// one hot flow from serializing the whole node behind one core.
	rxq []*sim.Queue[[]byte]
	// arpq is a dedicated control-plane queue: ARP frames must never
	// queue behind a flow whose service process is itself blocked in
	// ResolveMAC, or the node's first inbound handshake head-of-line
	// blocks on its own unprocessed ARP reply and rides a full RTO.
	arpq *sim.Queue[[]byte]

	// FastRx receives non-IPv4, non-ARP frames as steps of the receive
	// context's charge sequence (see HostDriver.FastRx).
	FastRx func(q *cpu.Seq, frame []byte)

	// Stats.
	TxMsgs, RxMsgs int64
	TxBusy         int64
	Recov          stats.RecoveryCounters
	draining       bool
	watchdog       *cpu.HRTimer

	// The receive drain's chain state: the message being copied, the
	// copy step's continuation and the transfer that writes it to local
	// memory. One drain runs at a time.
	rxMsg  []byte
	rxDone func()
	rxXfer *dram.Transfer
	// bound once: onRxBegin, onRxCopy, onRxWrite, onRxQueued, onEnqueue,
	// onFastRx
	rxBegin, rxQueued, enqueue, fastRx func(*cpu.Seq)
	rxCopy                             func(n int, done func())
	rxWrite                            func()
}

// NewDimmDriver creates the MCN-side driver for dimm, attaching it to the
// MCN node's CPU, stack and local memory channel. port is the host-side
// counterpart created by HostDriver.AddDimm (it defines the interface
// MACs).
func NewDimmDriver(k *sim.Kernel, c *cpu.CPU, s *netstack.Stack, local *dram.Channel, d *Dimm, port *HostPort, opts Options, costs DriverCosts) *DimmDriver {
	drv := &DimmDriver{
		CPU: c, Stack: s, Opts: opts, Costs: costs,
		dimm: d, local: local, port: port,
		rxXfer: dram.NewTransfer(),
	}
	drv.rxBegin, drv.rxQueued, drv.enqueue, drv.fastRx = drv.onRxBegin, drv.onRxQueued, drv.onEnqueue, drv.onFastRx
	drv.rxCopy, drv.rxWrite = drv.onRxCopy, drv.onRxWrite
	if opts.DMA {
		drv.dma = newRingEngine(k, nil)
	}
	drv.qdisc = newRingEngine(k, c)
	for i := 0; i < c.NumCores(); i++ {
		q := sim.NewQueue[[]byte](k, 0)
		drv.rxq = append(drv.rxq, q)
		k.Go(fmt.Sprintf("%s/rps%d", d.Name, i), func(p *sim.Proc) { drv.serveRx(p, q) })
	}
	drv.arpq = sim.NewQueue[[]byte](k, 0)
	k.Go(d.Name+"/arp-rx", func(p *sim.Proc) { drv.serveRx(p, drv.arpq) })
	d.SetRxIRQ(c.NewIRQChain(d.Name+"/rx", drv.drainRX).Raise)
	d.armRxWatchdog = drv.ArmWatchdog
	return drv
}

// serveRx is one receive context (an RPS core, or the ARP queue's): it
// hands each message queued on q, with its buffer, to the stack, or to
// the fast-path transport and then recycles the buffer. A fast-path
// message's receive charge and the transport's steps run as one chain.
func (drv *DimmDriver) serveRx(p *sim.Proc, q *sim.Queue[[]byte]) {
	for {
		msg, ok := q.Get(p)
		if !ok {
			return
		}
		if _, fast := fastFrame(msg); fast && drv.FastRx != nil {
			s := drv.CPU.Seq().Exec(drv.Costs.RxPerMsgCycles).Hook(drv.fastRx)
			s.Buf = msg
			s.Run(p)
			// The fast-path transport copies payload bytes it keeps, so
			// the popped buffer is recyclable after its steps.
			drv.Stack.RecycleFrameBuf(msg)
			continue
		}
		drv.CPU.Exec(p, drv.Costs.RxPerMsgCycles)
		drv.Stack.RxFrame(p, drv, netstack.Frame{Data: msg, Pooled: true})
	}
}

// onFastRx ends a fast-path message's receive charge: the transport's
// steps join the chain.
func (drv *DimmDriver) onFastRx(q *cpu.Seq) { drv.FastRx(q, q.Buf) }

// fastFrame parses frame's Ethernet header and reports whether the frame
// is neither IPv4 nor ARP: the fast-path transport's, when one is
// attached.
func fastFrame(frame []byte) (netstack.EthHeader, bool) {
	eth, ok := netstack.ParseEth(frame)
	return eth, ok && eth.Type != netstack.EtherTypeIPv4 && eth.Type != netstack.EtherTypeARP
}

// ArmWatchdog starts the RX recovery watchdog (idempotent). The rx-poll IRQ
// is edge-triggered, so a lost edge (or one raised while the DIMM's host
// interface was flapping) leaves messages sitting in the RX ring with no
// drain scheduled; the watchdog re-kicks the drain whenever work is pending
// and nothing is servicing it. It is armed only when fault injection is
// attached so fault-free runs keep the seed's exact event count.
func (drv *DimmDriver) ArmWatchdog() {
	if drv.watchdog != nil {
		return
	}
	d := drv.dimm
	drv.watchdog = drv.CPU.NewHRTimer(DefaultWatchdogInterval, func(p *sim.Proc) {
		if (d.Buf.RxPoll || !d.Buf.RX.Empty()) && !drv.draining {
			drv.Recov.WatchdogKicks++
			drv.CPU.Seq().Hook(drv.rxBegin).Run(p)
		}
	})
	drv.watchdog.Start()
}

// flowQueue picks the RPS queue for a frame by hashing its flow identity.
// ARP is steered to the dedicated control-plane queue so resolution
// replies are processed even while every flow service process is parked
// (e.g. blocked in ResolveMAC sending a SYN-ACK).
func (drv *DimmDriver) flowQueue(msg []byte) *sim.Queue[[]byte] {
	h := uint32(2166136261)
	eth, ok := netstack.ParseEth(msg)
	if ok && eth.Type == netstack.EtherTypeARP {
		return drv.arpq
	}
	if ok && eth.Type == netstack.EtherTypeIPv4 {
		if ip, ok2 := netstack.ParseIPv4(msg[netstack.EthHeaderBytes:]); ok2 {
			for _, b := range ip.Src {
				h = (h ^ uint32(b)) * 16777619
			}
			for _, b := range ip.Dst {
				h = (h ^ uint32(b)) * 16777619
			}
			if ip.Proto == netstack.ProtoTCP || ip.Proto == netstack.ProtoUDP {
				body := msg[netstack.EthHeaderBytes+netstack.IPv4HeaderBytes:]
				if len(body) >= 4 {
					for _, b := range body[:4] {
						h = (h ^ uint32(b)) * 16777619
					}
				}
			}
		}
	}
	return drv.rxq[int(h%uint32(len(drv.rxq)))]
}

// ---- netstack.NetDev ----

// Name returns the MCN-side interface name.
func (drv *DimmDriver) Name() string { return drv.dimm.Name + "/mcn0" }

// MAC returns the MCN-side interface MAC.
func (drv *DimmDriver) MAC() netstack.MAC { return drv.port.mcnMAC }

// MTU returns the configured MTU.
func (drv *DimmDriver) MTU() int { return drv.Opts.MTU }

// Features mirrors the host port: TSO bounded by the SRAM ring, checksum
// handled by the channel's ECC/CRC when bypass is on.
func (drv *DimmDriver) Features() netstack.Features {
	return netstack.Features{
		TSO:         drv.Opts.TSO,
		MaxTSOBytes: 32 << 10,
		HWChecksum:  drv.Opts.ChecksumBypass,
	}
}

// Transmit performs T1-T3: check space, write the MCN message into the TX
// ring, update tx-end and tx-poll (with fences), and — with the ALERT_N
// optimization — assert the DIMM interrupt toward the host. Like
// dev_queue_xmit it only enqueues: the MCN-DMA engine or the qdisc does
// the copy, so a receive context sending an ACK never blocks on the ring.
func (drv *DimmDriver) Transmit(p *sim.Proc, f netstack.Frame) {
	drv.setupSteps(drv.CPU.Seq()).Run(p)
	drv.submit(owned(drv.Stack, f.Data, f.Pooled))
}

// TransmitSteps is Transmit as steps of the sender's charge sequence
// (netstack.StepDev), for the pooled frame q.Buf.
func (drv *DimmDriver) TransmitSteps(q *cpu.Seq) { drv.setupSteps(q).Hook(drv.enqueue) }

func (drv *DimmDriver) onEnqueue(q *cpu.Seq) { drv.submit(q.Buf) }

// setupSteps appends the descriptor setup of a transmit to q.
func (drv *DimmDriver) setupSteps(q *cpu.Seq) *cpu.Seq {
	q.Exec(drv.Costs.TxSetupCycles)
	if drv.Opts.DMA {
		q.Exec(drv.Costs.DMASetupCycles)
	}
	return q
}

// submit hands msg, a buffer the job owns, to the MCN-DMA engine or the
// qdisc.
func (drv *DimmDriver) submit(msg []byte) {
	e := drv.qdisc
	if drv.Opts.DMA {
		e = drv.dma
	}
	e.submit(ringJob{kind: dimmTx, drv: drv, msg: msg})
}

// drainRX is the MCN-side rx interrupt's handler: it empties the RX ring,
// copying each MCN message from the SRAM into kernel memory and handing it
// to a receive context, which reaches the network stack. The drain never
// enters the stack itself, so it is a callback chain with no process; the
// RX watchdog runs the same chain from its tasklet. The popped buffer is
// the one the host pushed; the stack recycles it after delivery.
func (drv *DimmDriver) drainRX(done func()) { drv.CPU.Seq().Hook(drv.rxBegin).RunThen(done) }

// onRxBegin starts a drain unless one is already running.
func (drv *DimmDriver) onRxBegin(q *cpu.Seq) {
	if drv.draining {
		return
	}
	drv.draining = true
	drv.rxPop(q)
}

// rxPop pops the next message and appends its copy, with a core held, to
// the chain; with the ring empty it clears rx-poll and re-checks, since a
// message may have landed between the last pop and the clear, and ends the
// drain when none did.
func (drv *DimmDriver) rxPop(q *cpu.Seq) {
	d := drv.dimm
	if d.Buf.RX.Empty() {
		d.Buf.RxPoll = false
		if d.Buf.RX.Empty() {
			drv.draining = false
			return
		}
		d.Buf.RxPoll = true
	}
	msg := d.Buf.RX.Pop()
	if drv.ChanTap != nil {
		drv.ChanTap.Frame(drv.CPU.K.Now(), netstack.TapDimmPop, d.Name, msg)
	}
	drv.rxMsg = msg
	q.While(drv.rxCopy, len(msg)).Hook(drv.rxQueued)
}

// onRxCopy reads the n-byte message and its header out of the SRAM over
// the on-chip interconnect, then writes it to local memory.
func (drv *DimmDriver) onRxCopy(n int, done func()) {
	drv.rxDone = done
	drv.CPU.K.After(drv.dimm.mcnAccessTime(sram.HeaderBytes+n), drv.rxWrite)
}

func (drv *DimmDriver) onRxWrite() {
	n := len(drv.rxMsg)
	drv.dimm.McnAccess.Add(drv.CPU.K.Now(), int64(sram.HeaderBytes+n))
	drv.rxXfer.Access(drv.local, 0x1800_0000, true, n, drv.rxDone)
}

// onRxQueued hands the copied message to its flow's RPS queue, where
// protocol processing runs on another core, and goes on to the next.
func (drv *DimmDriver) onRxQueued(q *cpu.Seq) {
	msg := drv.rxMsg
	drv.rxMsg, drv.rxDone = nil, nil
	drv.RxMsgs++
	drv.flowQueue(msg).TryPut(msg)
	drv.rxPop(q)
}
