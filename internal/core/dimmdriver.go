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
	K     *sim.Kernel
	CPU   *cpu.CPU
	Stack *netstack.Stack
	Opts  Options
	Costs DriverCosts

	dimm   *Dimm
	getBuf func(int) []byte // bound Stack.GetFrameBuf (avoids a closure per pop)
	local  *dram.Channel    // the MCN node's private memory channel
	port   *HostPort        // the host-side peer (for MAC identity)
	dma    *ringEngine      // MCN-DMA mode

	// ChanTap, when set, observes every IRQ-drain pop from this node's
	// SRAM RX ring as netstack.TapDimmPop, named by DIMM.
	ChanTap netstack.Tap
	// qdisc performs T1-T3 on a core of the node when MCN-DMA is off.
	qdisc *ringEngine
	// rxq implements receive packet steering: the IRQ drain only copies
	// messages out of the SRAM; protocol processing is spread across
	// per-flow queues serviced on different cores (Linux RPS), keeping
	// one hot flow from serializing the whole node behind one core.
	rxq []*sim.Queue[rxEntry]
	// arpq is a dedicated control-plane queue: ARP frames must never
	// queue behind a flow whose service process is itself blocked in
	// ResolveMAC, or the node's first inbound handshake head-of-line
	// blocks on its own unprocessed ARP reply and rides a full RTO.
	arpq *sim.Queue[rxEntry]

	// TraceMinBytes / LastTrace mirror the host driver's Table III hooks
	// for the host->MCN direction.
	TraceMinBytes int
	LastTrace     *McnStamps

	// FastRx receives non-IPv4 frames (see HostDriver.FastRx).
	FastRx func(p *sim.Proc, frame []byte)

	// Stats.
	TxMsgs, RxMsgs int64
	TxBusy         int64
	Recov          stats.RecoveryCounters
	draining       bool
	watchdog       *cpu.HRTimer
}

// NewDimmDriver creates the MCN-side driver for dimm, attaching it to the
// MCN node's CPU, stack and local memory channel. port is the host-side
// counterpart created by HostDriver.AddDimm (it defines the interface
// MACs).
func NewDimmDriver(k *sim.Kernel, c *cpu.CPU, s *netstack.Stack, local *dram.Channel, d *Dimm, port *HostPort, opts Options, costs DriverCosts) *DimmDriver {
	drv := &DimmDriver{
		K: k, CPU: c, Stack: s, Opts: opts, Costs: costs,
		dimm: d, local: local, port: port,
		TraceMinBytes: 1 << 30,
	}
	drv.getBuf = s.GetFrameBuf
	if opts.DMA {
		drv.dma = newRingEngine(k, nil)
	}
	drv.qdisc = newRingEngine(k, c)
	for i := 0; i < c.NumCores(); i++ {
		q := sim.NewQueue[rxEntry](k, 0)
		drv.rxq = append(drv.rxq, q)
		k.Go(fmt.Sprintf("%s/rps%d", d.Name, i), func(p *sim.Proc) {
			for {
				e, ok := q.Get(p)
				if !ok {
					return
				}
				drv.CPU.Exec(p, drv.Costs.RxPerMsgCycles)
				if e.st != nil {
					e.st.DriverRxEnd = p.Now()
					drv.LastTrace = e.st
				}
				if eth, ok2 := netstack.ParseEth(e.msg); ok2 &&
					eth.Type != netstack.EtherTypeIPv4 && eth.Type != netstack.EtherTypeARP &&
					drv.FastRx != nil {
					// The fast-path transport copies payload bytes it
					// keeps, so the ring buffer is recyclable after it.
					drv.FastRx(p, e.msg)
					drv.Stack.RecycleFrameBuf(e.msg)
					continue
				}
				drv.Stack.RxFrame(p, drv, e.msg)
				drv.Stack.RecycleFrameBuf(e.msg)
			}
		})
	}
	drv.arpq = sim.NewQueue[rxEntry](k, 0)
	k.Go(d.Name+"/arp-rx", func(p *sim.Proc) {
		for {
			e, ok := drv.arpq.Get(p)
			if !ok {
				return
			}
			drv.CPU.Exec(p, drv.Costs.RxPerMsgCycles)
			drv.Stack.RxFrame(p, drv, e.msg)
			drv.Stack.RecycleFrameBuf(e.msg)
		}
	})
	d.SetRxIRQ(func() {
		c.RaiseIRQ(d.Name+"/rx", drv.drainRX)
	})
	d.armRxWatchdog = drv.ArmWatchdog
	return drv
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
			drv.drainRX(p)
		}
	})
	drv.watchdog.Start()
}

type rxEntry struct {
	msg []byte
	st  *McnStamps
}

// flowQueue picks the RPS queue for a frame by hashing its flow identity.
// ARP is steered to the dedicated control-plane queue so resolution
// replies are processed even while every flow service process is parked
// (e.g. blocked in ResolveMAC sending a SYN-ACK).
func (drv *DimmDriver) flowQueue(msg []byte) *sim.Queue[rxEntry] {
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
		// T2 copies the frame into the SRAM TX ring; the buffer is dead
		// (and recycled) the moment the push completes.
		ConsumesTxFrame: true,
	}
}

// Transmit performs T1-T3: check space, write the MCN message into the TX
// ring, update tx-end and tx-poll (with fences), and — with the ALERT_N
// optimization — assert the DIMM interrupt toward the host. Like
// dev_queue_xmit it only enqueues: the MCN-DMA engine or the qdisc does
// the copy, so a receive context sending an ACK never blocks on the ring.
func (drv *DimmDriver) Transmit(p *sim.Proc, f netstack.Frame) {
	var st *McnStamps
	if len(f.Data) >= drv.TraceMinBytes {
		st = &McnStamps{DriverTxStart: p.Now()}
	}
	drv.CPU.Exec(p, drv.Costs.TxSetupCycles)
	e := drv.qdisc
	if drv.Opts.DMA {
		drv.CPU.Exec(p, drv.Costs.DMASetupCycles)
		e = drv.dma
	}
	e.submit(ringJob{kind: dimmTx, drv: drv, msg: f.Data, st: st, pooled: f.Pooled})
}

// drainRX empties the RX ring: for each MCN message, copy it from the SRAM
// into kernel memory and hand it to the network stack.
func (drv *DimmDriver) drainRX(p *sim.Proc) {
	if drv.draining {
		return
	}
	drv.draining = true
	defer func() { drv.draining = false }()
	d := drv.dimm
	for {
		for !d.Buf.RX.Empty() {
			msg := d.Buf.RX.PopWith(drv.getBuf)
			if drv.ChanTap != nil {
				drv.ChanTap.Frame(p.Now(), netstack.TapDimmPop, d.Name, msg)
			}
			var st *McnStamps
			if len(drv.port.rxMeta) > 0 {
				st = drv.port.rxMeta[0]
				drv.port.rxMeta = drv.port.rxMeta[1:]
			}
			if st != nil {
				st.DriverRxStart = p.Now()
			}
			drv.CPU.ExecWhile(p, func() {
				d.McnAccessCost(p, sram.HeaderBytes+len(msg))
				drv.local.Write(p, 0x1800_0000, len(msg))
			})
			drv.RxMsgs++
			// Hand off to the flow's RPS queue; protocol processing
			// runs on another core while this drain keeps copying.
			drv.flowQueue(msg).TryPut(rxEntry{msg: msg, st: st})
		}
		// Clear rx-poll, then re-check: a message may have landed
		// between the last pop and the clear.
		d.Buf.RxPoll = false
		if d.Buf.RX.Empty() {
			return
		}
		d.Buf.RxPoll = true
	}
}
