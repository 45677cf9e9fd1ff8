package core

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/sram"
	"github.com/mcn-arch/mcn/internal/stats"
)

// McnStamps carries per-stage timestamps for one traced MCN message; the
// MCN rows of Table III come from these. MCN has no DMA-TX/PHY/DMA-RX
// stages (the memory channel is the PHY and the copies are the driver).
type McnStamps struct {
	DriverTxStart sim.Time // sender driver begins T1
	DriverTxEnd   sim.Time // message fully in the SRAM ring
	DriverRxStart sim.Time // receiver begins reading the ring
	DriverRxEnd   sim.Time // handed to the network stack
}

// retryInterval is how long a driver waits before retrying after
// NETDEV_TX_BUSY (ring full).
const retryInterval = 2 * sim.Microsecond

// HostDriver is the host-side MCN driver: it creates one virtual Ethernet
// interface per MCN DIMM, runs the polling agent (HR-timer or ALERT_N
// driven), executes receive steps R1-R5, transmit steps T1-T3 toward the
// DIMMs, and routes packets with the forwarding rules F1-F4 (Sec. III-B).
type HostDriver struct {
	K     *sim.Kernel
	CPU   *cpu.CPU
	Stack *netstack.Stack
	Opts  Options
	Costs DriverCosts

	ports    []*HostPort
	getBuf   func(int) []byte           // bound Stack.GetFrameBuf (avoids a closure per pop)
	byMAC    map[netstack.MAC]*HostPort // host-side and MCN-side MACs
	uplink   netstack.NetDev            // conventional NIC for F4
	timer    *cpu.HRTimer
	watchdog *cpu.HRTimer
	dmas     map[int]*ringEngine // MCN-DMA engines, per host channel index

	// MACBase offsets the interface MACs this driver assigns; hosts in a
	// multi-server rack use distinct bases so MCN-side MACs stay unique
	// across the L2 domain. Set before the first AddDimm.
	MACBase uint32

	// TraceMinBytes arms Table III tracing for messages at least this
	// large; LastTrace holds the most recent completed trace.
	TraceMinBytes int
	LastTrace     *McnStamps

	// ChanTap, when set, observes every successful SRAM RX-ring push
	// (T3) on this host's channels as netstack.TapChanPush, named by DIMM.
	ChanTap netstack.Tap

	// FastRx, when set, receives frames whose EtherType is not IPv4 and
	// whose destination is a host-side interface MAC — the attachment
	// point for the Sec. VII user-space-style MCN transport that bypasses
	// TCP/IP.
	FastRx func(p *sim.Proc, src *HostPort, frame []byte)

	// Stats.
	DeliveredHost int64 // F1
	Broadcasts    int64 // F2
	RelayedDimm   int64 // F3
	SentNIC       int64 // F4
	BridgedIn     int64 // NIC -> DIMM (cross-host ingress)
	TxBusy        int64
	PollRounds    int64
	PollHits      int64
	Recov         stats.RecoveryCounters
}

// NewHostDriver creates the host-side driver. Call AddDimm for each MCN
// DIMM, optionally SetUplink, then Start.
func NewHostDriver(k *sim.Kernel, c *cpu.CPU, s *netstack.Stack, opts Options, costs DriverCosts) *HostDriver {
	if opts.PollInterval == 0 {
		opts.PollInterval = DefaultPollInterval
	}
	if opts.WatchdogInterval == 0 {
		opts.WatchdogInterval = DefaultWatchdogInterval
	}
	hd := &HostDriver{
		K: k, CPU: c, Stack: s, Opts: opts, Costs: costs,
		byMAC:         make(map[netstack.MAC]*HostPort),
		dmas:          make(map[int]*ringEngine),
		TraceMinBytes: 1 << 30,
	}
	hd.getBuf = s.GetFrameBuf
	return hd
}

// HostPort is the host-side virtual Ethernet interface for one MCN DIMM.
// It implements netstack.NetDev: Transmit performs the host->DIMM T1-T3
// sequence into the DIMM's RX ring.
type HostPort struct {
	drv     *HostDriver
	dimm    *Dimm
	name    string
	hostMAC netstack.MAC // this interface's MAC (F1 match)
	mcnMAC  netstack.MAC // the MCN-side interface's MAC (F3 match)
	iface   *netstack.Iface
	// qdisc performs T1-T3 on a host core when the MCN-DMA engines are
	// off (see ringEngine).
	qdisc *ringEngine
	// draining guards against concurrent drains of the same TX ring;
	// alertPending latches an ALERT_N that arrived while a drain was
	// active so its wakeup is never lost.
	draining     bool
	alertPending bool
	// carrier is the virtual netdev's carrier state: dropped when the
	// liveness probe finds the DIMM offline, restored when it answers
	// again. With carrier down the port fails fast instead of retrying
	// into a dead ring.
	carrier bool
	// rx metadata queues parallel the SRAM rings for traced messages.
	txMeta []*McnStamps
	rxMeta []*McnStamps
}

// AddDimm registers an MCN DIMM: hostIP is the host's address on the MCN
// subnet (shared by all ports), mcnIP the DIMM's address. idx must be
// unique per DIMM.
func (hd *HostDriver) AddDimm(d *Dimm, hostIP, mcnIP netstack.IP, idx int) *HostPort {
	port := &HostPort{
		drv:     hd,
		dimm:    d,
		name:    fmt.Sprintf("mcn%d", idx),
		hostMAC: netstack.NewMAC(0x10000 + hd.MACBase + uint32(idx)),
		mcnMAC:  netstack.NewMAC(0x20000 + hd.MACBase + uint32(idx)),
		carrier: true,
	}
	ifc := hd.Stack.AddIface(port, hostIP, netstack.MaskAll)
	ifc.Peer = mcnIP
	ifc.HasPeer = true
	ifc.Neighbors[mcnIP] = port.mcnMAC
	port.iface = ifc
	port.qdisc = newRingEngine(hd.K, hd.CPU)
	hd.ports = append(hd.ports, port)
	hd.byMAC[port.hostMAC] = port
	hd.byMAC[port.mcnMAC] = port
	if hd.Opts.DimmInterrupt {
		d.SetAlertN(func() { hd.onAlert(port) })
	}
	if hd.Opts.DMA {
		if _, ok := hd.dmas[d.ChannelIdx]; !ok {
			hd.dmas[d.ChannelIdx] = newRingEngine(hd.K, nil)
		}
	}
	return port
}

// Ports returns the registered host-side ports.
func (hd *HostDriver) Ports() []*HostPort { return hd.ports }

// SetUplink wires the conventional NIC used by forwarding rule F4 and
// installs the ingress bridge so frames arriving on that NIC for this
// host's MCN nodes are relayed into their DIMMs — the mechanism that lets
// MCN nodes on different hosts communicate (Sec. III-B).
func (hd *HostDriver) SetUplink(dev netstack.NetDev) {
	hd.uplink = dev
	hd.Stack.Bridge = func(p *sim.Proc, rxDev netstack.NetDev, frame []byte) bool {
		if rxDev != dev {
			return false
		}
		return hd.bridgeFromUplink(p, frame)
	}
}

// bridgeFromUplink handles a frame arriving on the conventional NIC. It
// reports whether the frame was consumed (relayed to a DIMM).
func (hd *HostDriver) bridgeFromUplink(p *sim.Proc, frame []byte) bool {
	eth, ok := netstack.ParseEth(frame)
	if !ok {
		return false
	}
	if eth.Dst.IsBroadcast() {
		// Copy toward every local MCN node; the local stack still
		// processes it too (return false).
		for _, port := range hd.ports {
			hd.relay(p, port, frame, nil, false)
		}
		hd.BridgedIn++
		return false
	}
	if tgt, ok2 := hd.byMAC[eth.Dst]; ok2 && eth.Dst == tgt.mcnMAC {
		hd.BridgedIn++
		hd.relay(p, tgt, frame, nil, false)
		return true
	}
	return false
}

// Start arms the polling agent. With the ALERT_N optimization the periodic
// data-path timer is unnecessary (Sec. IV-B): an ALERT_N edge is the only
// wakeup. A coarse recovery watchdog takes the timer's place once fault
// injection is attached (see armWatchdog) — a lost edge or a DIMM that died
// outright would otherwise stall the ring forever.
func (hd *HostDriver) Start() {
	if hd.Opts.DimmInterrupt {
		return
	}
	hd.timer = hd.CPU.NewHRTimer(hd.Opts.PollInterval, hd.pollAll)
	hd.timer.Start()
}

// armWatchdog starts the recovery watchdog (idempotent). It is armed only
// when a fault injector is attached: fault-free simulations keep exactly the
// event count and CPU costs they had without the recovery machinery, and
// only interrupt-driven configurations need it (the polling agent already
// rescans every ring each tick).
func (hd *HostDriver) armWatchdog() {
	if !hd.Opts.DimmInterrupt || hd.watchdog != nil {
		return
	}
	hd.watchdog = hd.CPU.NewHRTimer(hd.Opts.WatchdogInterval, hd.watchdogScan)
	hd.watchdog.Start()
}

// Stop disarms the polling agent and the watchdog.
func (hd *HostDriver) Stop() {
	if hd.timer != nil {
		hd.timer.Stop()
	}
	if hd.watchdog != nil {
		hd.watchdog.Stop()
	}
}

// probeCarrier refreshes one port's carrier state from the DIMM's
// host-interface liveness, counting each transition.
func (hd *HostDriver) probeCarrier(port *HostPort) {
	online := port.dimm.Online()
	switch {
	case port.carrier && !online:
		port.carrier = false
		hd.Recov.CarrierDowns++
	case !port.carrier && online:
		port.carrier = true
		hd.Recov.CarrierUps++
	}
}

// Carrier reports the port's netdev carrier state.
func (p *HostPort) Carrier() bool { return p.carrier }

// watchdogScan is the recovery timer body: probe every DIMM's liveness and
// re-kick any ring that has work pending but no active drain — the state a
// lost ALERT_N edge leaves behind.
func (hd *HostDriver) watchdogScan(p *sim.Proc) {
	for _, port := range hd.ports {
		hd.probeCarrier(port)
		if !port.carrier {
			continue
		}
		hd.CPU.Exec(p, hd.Costs.PollCheckCycles)
		port.dimm.HostAccess(p, 8, false, false)
		if port.dimm.Buf.TxPoll && !port.draining {
			hd.Recov.WatchdogKicks++
			hd.kick(port)
		}
	}
}

// kick dispatches a drain of the port's TX ring through whichever engine
// the configuration uses.
func (hd *HostDriver) kick(port *HostPort) {
	if hd.Opts.DMA {
		hd.dmas[port.dimm.ChannelIdx].submit(ringJob{kind: hostDrain, port: port})
		return
	}
	hd.K.Go(port.name+"/drain", func(dp *sim.Proc) {
		hd.drain(dp, port)
	})
}

// ---- netstack.NetDev for HostPort ----

// Name returns the interface name.
func (p *HostPort) Name() string { return p.name }

// MAC returns the host-side interface MAC.
func (p *HostPort) MAC() netstack.MAC { return p.hostMAC }

// McnMAC returns the MCN-side peer's MAC.
func (p *HostPort) McnMAC() netstack.MAC { return p.mcnMAC }

// Dimm returns the underlying DIMM.
func (p *HostPort) Dimm() *Dimm { return p.dimm }

// MTU returns the configured MTU (1.5KB, or 9KB for mcn3+).
func (p *HostPort) MTU() int { return p.drv.Opts.MTU }

// Features advertises TSO (bounded by the SRAM ring) and, with checksum
// bypass, "hardware" checksumming: the ECC/CRC-protected memory channel
// makes software checksums redundant (Sec. IV-A).
func (p *HostPort) Features() netstack.Features {
	return netstack.Features{
		TSO:         p.drv.Opts.TSO,
		MaxTSOBytes: 32 << 10,
		HWChecksum:  p.drv.Opts.ChecksumBypass,
		// T2 copies the frame into the DIMM's RX ring; the buffer is
		// dead (and recycled) the moment the push completes.
		ConsumesTxFrame: true,
	}
}

// Transmit sends one packet from the host toward the DIMM's RX ring. It
// never blocks on ring space: the packet is queued (dev_queue_xmit) and
// the qdisc or the MCN-DMA engine performs T1-T3.
func (p *HostPort) Transmit(pr *sim.Proc, f netstack.Frame) {
	hd := p.drv
	if !p.carrier {
		// Fail fast: the DIMM is dead; let the sender's own recovery
		// (TCP retransmission) find another path or wait out the flap.
		hd.Recov.CarrierDrops++
		if f.Pooled {
			hd.Stack.RecycleFrameBuf(f.Data)
		}
		return
	}
	var st *McnStamps
	if len(f.Data) >= hd.TraceMinBytes {
		st = &McnStamps{DriverTxStart: pr.Now()}
	}
	hd.CPU.Exec(pr, hd.Costs.TxSetupCycles)
	hd.relay(pr, p, f.Data, st, f.Pooled)
}

// ---- Polling agent and receive path (R1-R5) ----

// pollAll is the HR-timer tasklet: scan the tx-poll flag of every MCN DIMM
// (Sec. III-B "polling agent"). Ports with pending packets are drained in
// parallel service contexts, one per interface, the way per-interface NAPI
// contexts spread over cores; the core count still bounds real
// parallelism.
func (hd *HostDriver) pollAll(p *sim.Proc) {
	hd.PollRounds++
	for _, port := range hd.ports {
		hd.probeCarrier(port)
		if !port.carrier {
			continue
		}
		hd.CPU.Exec(p, hd.Costs.PollCheckCycles)
		// Reading the flag is one uncached access to the SRAM window.
		port.dimm.HostAccess(p, 8, false, false)
		if port.dimm.Buf.TxPoll && !port.draining {
			hd.PollHits++
			port := port
			hd.K.Go(port.name+"/drain", func(dp *sim.Proc) {
				hd.drain(dp, port)
			})
		}
	}
}

// onAlert services an ALERT_N interrupt: the MC knows which channel
// asserted, so only that channel's DIMMs are polled (Sec. IV-B).
func (hd *HostDriver) onAlert(src *HostPort) {
	if hd.Opts.DMA {
		// The channel DMA engine reads the ring; the CPU is interrupted
		// only when packets are ready in host memory.
		if src.draining {
			src.alertPending = true
			return
		}
		hd.dmas[src.dimm.ChannelIdx].submit(ringJob{kind: hostDrain, port: src})
		return
	}
	hd.CPU.RaiseIRQ("alertn", func(p *sim.Proc) {
		for _, port := range hd.ports {
			if port.dimm.ChannelIdx != src.dimm.ChannelIdx {
				continue
			}
			hd.CPU.Exec(p, hd.Costs.PollCheckCycles)
			if !port.dimm.Buf.TxPoll {
				continue
			}
			if port.draining {
				// Latch the edge: the active drain rechecks before it
				// exits, so this wakeup cannot be lost.
				port.alertPending = true
				continue
			}
			port := port
			hd.K.Go(port.name+"/drain", func(dp *sim.Proc) {
				hd.drain(dp, port)
			})
		}
	})
}

// napiLinger is how long a drain context re-polls an empty ring before
// exiting (the NAPI-style hybrid that keeps sustained streams from paying
// one interrupt per message).
const napiLinger = 2 * sim.Microsecond

// drain implements R1-R5 on one DIMM's TX ring, forwarding each message.
// After the ring empties it clears tx-poll (R5) and lingers briefly in
// polling mode; a message that slips in during the clear is caught by the
// re-check rather than lost.
func (hd *HostDriver) drain(p *sim.Proc, port *HostPort) {
	if port.draining {
		return
	}
	port.draining = true
	defer func() { port.draining = false }()
	d := port.dimm
	// R1: read tx-start and tx-end.
	d.HostAccess(p, 64, false, true)
	idle := 0
	for {
		if !d.Online() {
			return // DIMM died mid-drain; the watchdog resumes it later
		}
		for !d.Buf.TX.Empty() {
			idle = 0
			msg := d.Buf.TX.PopWith(hd.getBuf)
			var st *McnStamps
			if len(port.txMeta) > 0 {
				st = port.txMeta[0]
				port.txMeta = port.txMeta[1:]
			}
			if st != nil {
				st.DriverRxStart = p.Now()
			}
			// R2-R3: read the message through the cacheable mapping,
			// then invalidate the lines (Sec. III-B "memory mapping
			// unit").
			hd.CPU.ExecWhile(p, func() {
				d.HostAccess(p, sram.HeaderBytes+len(msg), false, !hd.Opts.UncachedCopies)
			})
			lines := int64(len(msg)/64 + 1)
			hd.CPU.Exec(p, hd.Costs.InvalidateCyclesPerLine*lines+hd.Costs.RxPerMsgCycles)
			// R4: hand to the packet forwarding engine.
			hd.forward(p, port, msg, st, true)
		}
		// R5: all consumed; reset tx-poll.
		d.Buf.TxPoll = false
		d.HostAccess(p, 8, true, false)
		if idle >= 2 {
			// A message (and its edge-triggered alert) may have raced
			// the flag clear; leave only when truly drained.
			if port.alertPending || !d.Buf.TX.Empty() {
				port.alertPending = false
				idle = 0
				continue
			}
			return
		}
		idle++
		p.Sleep(napiLinger)
	}
}

// DebugState renders per-port driver state for diagnosing stalls.
func (hd *HostDriver) DebugState() string {
	var b strings.Builder
	for _, port := range hd.ports {
		fmt.Fprintf(&b, "%s: draining=%v qdisc=%d txMeta=%d ringTX=%d ringRX=%d txpoll=%v rxpoll=%v\n",
			port.name, port.draining, port.qdisc.Len(), len(port.txMeta),
			port.dimm.Buf.TX.Used(), port.dimm.Buf.RX.Used(),
			port.dimm.Buf.TxPoll, port.dimm.Buf.RxPoll)
	}
	fmt.Fprintf(&b, "host cores in use=%d/%d queue=%d\n", hd.CPU.Cores.InUse(), hd.CPU.Cores.Capacity(), hd.CPU.Cores.QueueLen())
	return b.String()
}

// relay hands a frame to tgt's T1-T3 machinery without ever blocking the
// calling (transmit or receive) context. With MCN-DMA the CPU programs a
// descriptor and the channel's engine moves the data; otherwise the CPU
// performs the copy (memcpy_to_mcn) from the port's qdisc.
func (hd *HostDriver) relay(p *sim.Proc, tgt *HostPort, frame []byte, st *McnStamps, pooled bool) {
	e := tgt.qdisc
	if hd.Opts.DMA {
		hd.CPU.Exec(p, hd.Costs.DMASetupCycles)
		e = hd.dmas[tgt.dimm.ChannelIdx]
	}
	e.submit(ringJob{kind: hostTx, port: tgt, msg: frame, st: st, pooled: pooled})
}

// forward implements the packet forwarding engine rules F1-F4. pooled
// marks frame as recyclable once this function (or the relay machinery it
// hands off to) is done with it; aliasing dispositions — broadcast fan-out
// and the conventional NIC — leave the buffer to the garbage collector.
func (hd *HostDriver) forward(p *sim.Proc, src *HostPort, frame []byte, st *McnStamps, pooled bool) {
	hd.CPU.Exec(p, hd.Costs.ForwardCycles)
	recycle := func() {
		if pooled {
			hd.Stack.RecycleFrameBuf(frame)
		}
	}
	eth, ok := netstack.ParseEth(frame)
	if !ok {
		recycle()
		return
	}
	if eth.Type != netstack.EtherTypeIPv4 && eth.Type != netstack.EtherTypeARP {
		// Non-IP traffic: the fast-path transport (Sec. VII) or nothing.
		if eth.Dst == src.hostMAC && hd.FastRx != nil {
			if st != nil {
				st.DriverRxEnd = p.Now()
				hd.LastTrace = st
			}
			// The fast-path transport copies payload bytes it keeps.
			hd.FastRx(p, src, frame)
			recycle()
			return
		}
		if tgt, ok2 := hd.byMAC[eth.Dst]; ok2 && tgt != src && eth.Dst == tgt.mcnMAC {
			hd.RelayedDimm++
			hd.relay(p, tgt, frame, nil, pooled)
			return
		}
		recycle()
		return
	}
	switch {
	case eth.Dst == src.hostMAC:
		// F1: for this host. The stack's receive path copies what it
		// keeps, so the frame is dead when RxFrame returns.
		hd.DeliveredHost++
		if st != nil {
			st.DriverRxEnd = p.Now()
			hd.LastTrace = st
		}
		hd.Stack.RxFrame(p, src, frame)
		recycle()
	case eth.Dst.IsBroadcast():
		// F2: deliver locally, relay to every other MCN node, and send
		// out the conventional NIC. The fan-out aliases the buffer, so
		// it is never recycled.
		hd.Broadcasts++
		hd.Stack.RxFrame(p, src, frame)
		for _, port := range hd.ports {
			if port != src {
				hd.relay(p, port, frame, nil, false)
			}
		}
		if hd.uplink != nil {
			hd.uplink.Transmit(p, netstack.Frame{Data: frame})
		}
	default:
		if tgt, ok2 := hd.byMAC[eth.Dst]; ok2 {
			if tgt == src {
				recycle()
				return // a node talking to itself through us: drop
			}
			if eth.Dst == tgt.mcnMAC {
				// F3: MCN-to-MCN relay through the host. With MCN-DMA
				// the outbound copy is offloaded to the target
				// channel's engine, exactly like a host transmit.
				hd.RelayedDimm++
				if st != nil {
					st.DriverRxEnd = p.Now()
					hd.LastTrace = st
				}
				hd.relay(p, tgt, frame, nil, pooled)
				return
			}
			// Addressed to another host-side interface MAC: deliver up.
			hd.DeliveredHost++
			hd.Stack.RxFrame(p, tgt, frame)
			recycle()
			return
		}
		// F4: unknown MAC, hand to the conventional NIC (dev_queue_xmit).
		// The NIC aliases the frame across the wire; not recyclable.
		if hd.uplink != nil {
			hd.SentNIC++
			hd.uplink.Transmit(p, netstack.Frame{Data: frame})
		} else {
			recycle()
		}
	}
}
