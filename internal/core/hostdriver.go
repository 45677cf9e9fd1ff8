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
	byMAC    map[netstack.MAC]*HostPort // host-side and MCN-side MACs
	uplink   netstack.NetDev            // conventional NIC for F4
	timer    *cpu.HRTimer
	watchdog *cpu.HRTimer
	dmas     map[int]*ringEngine // MCN-DMA engines, per host channel index

	// MACBase offsets the interface MACs this driver assigns; hosts in a
	// multi-server rack use distinct bases so MCN-side MACs stay unique
	// across the L2 domain. Set before the first AddDimm.
	MACBase uint32

	// ChanTap, when set, observes every successful SRAM RX-ring push
	// (T3) on this host's channels as netstack.TapChanPush and every pop
	// from a DIMM's TX ring as netstack.TapHostPop, named by DIMM.
	ChanTap netstack.Tap

	// FastRx, when set, receives frames whose EtherType is neither IPv4
	// nor ARP and whose destination is a host-side interface MAC — the
	// attachment point for the Sec. VII user-space-style MCN transport
	// that bypasses TCP/IP. It is a step of the receive context's charge
	// sequence: a hook at the end of the message's receive and forwarding
	// charges calls it with q.Buf the frame, at the instant the
	// forwarding engine would take the frame, and it appends the
	// transport's own charges and hooks, which leave q.N and q.Buf as
	// they are. The frame is the driver's again when the sequence ends:
	// the transport copies the bytes it keeps.
	FastRx func(q *cpu.Seq, src *HostPort, frame []byte)

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
	hd := &HostDriver{
		K: k, CPU: c, Stack: s, Opts: opts, Costs: costs,
		byMAC: make(map[netstack.MAC]*HostPort),
		dmas:  make(map[int]*ringEngine),
	}
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
	alertn  *cpu.IRQ // ALERT_N's handler when the MCN-DMA engines are off

	// The drain's chain state (one drain runs per port): the transfer
	// that reads a message out of the TX ring, its size and continuation.
	rdXfer  *dram.Transfer
	rdBytes int
	rdDone  func()
	// bound once: onAlertPoll, onAlertCheck, onEnqueue, onFastRx, onRead,
	// onReadRetired, and the drain's process body
	alertPoll, alertCheck, enqueue, fastRx func(*cpu.Seq)
	read                                   func(n int, done func())
	readRetired                            func()
	drainBody                              func(p *sim.Proc)
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
		rdXfer:  dram.NewTransfer(),
	}
	port.alertPoll, port.alertCheck, port.enqueue, port.fastRx = port.onAlertPoll, port.onAlertCheck, port.onEnqueue, port.onFastRx
	port.read, port.readRetired = port.onRead, port.onReadRetired
	port.drainBody = func(p *sim.Proc) { hd.drain(p, port) }
	ifc := hd.Stack.AddIface(port, hostIP, netstack.MaskAll)
	ifc.Peer = mcnIP
	ifc.HasPeer = true
	ifc.Neighbors[mcnIP] = port.mcnMAC
	port.qdisc = newRingEngine(hd.K, hd.CPU)
	hd.ports = append(hd.ports, port)
	hd.byMAC[port.hostMAC] = port
	hd.byMAC[port.mcnMAC] = port
	if hd.Opts.DimmInterrupt {
		port.alertn = hd.CPU.NewIRQChain("alertn", port.serveAlert)
		d.SetAlertN(func() { hd.onAlert(port) })
	}
	if hd.Opts.DMA {
		if _, ok := hd.dmas[d.ChannelIdx]; !ok {
			hd.dmas[d.ChannelIdx] = newRingEngine(hd.K, nil)
		}
	}
	return port
}

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
			hd.relay(p, port, frame, false)
		}
		hd.BridgedIn++
		return false
	}
	if tgt, ok2 := hd.byMAC[eth.Dst]; ok2 && eth.Dst == tgt.mcnMAC {
		hd.BridgedIn++
		hd.relay(p, tgt, frame, false)
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
	hd.watchdog = hd.CPU.NewHRTimer(DefaultWatchdogInterval, hd.watchdogScan)
	hd.watchdog.Start()
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

// watchdogScan is the recovery timer body: probe every DIMM's liveness and
// re-kick any ring that has work pending but no active drain — the state a
// lost ALERT_N edge leaves behind.
func (hd *HostDriver) watchdogScan(p *sim.Proc) { hd.Recov.WatchdogKicks += hd.scan(p, hd.kick) }

// scan probes every port's carrier and, on each live one, charges a read
// of the tx-poll flag; it calls start on each port whose flag is set with
// no drain active, and returns how many it started.
func (hd *HostDriver) scan(p *sim.Proc, start func(*HostPort)) int64 {
	var started int64
	for _, port := range hd.ports {
		hd.probeCarrier(port)
		if !port.carrier {
			continue
		}
		hd.CPU.Exec(p, hd.Costs.PollCheckCycles)
		// Reading the flag is one uncached access to the SRAM window.
		port.dimm.HostAccess(p, 8, false, false)
		if port.dimm.Buf.TxPoll && !port.draining {
			started++
			start(port)
		}
	}
	return started
}

// kick dispatches a drain of the port's TX ring through whichever engine
// the configuration uses.
func (hd *HostDriver) kick(port *HostPort) {
	if hd.Opts.DMA {
		hd.dmas[port.dimm.ChannelIdx].submit(ringJob{kind: hostDrain, port: port})
		return
	}
	hd.spawnDrain(port)
}

// spawnDrain starts a drain context on the port's TX ring.
func (hd *HostDriver) spawnDrain(port *HostPort) { hd.K.Go(port.name+"/drain", port.drainBody) }

// ---- netstack.NetDev for HostPort ----

// Name returns the interface name.
func (p *HostPort) Name() string { return p.name }

// MAC returns the host-side interface MAC.
func (p *HostPort) MAC() netstack.MAC { return p.hostMAC }

// McnMAC returns the MCN-side peer's MAC.
func (p *HostPort) McnMAC() netstack.MAC { return p.mcnMAC }

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
	}
}

// Transmit sends one packet from the host toward the DIMM's RX ring. It
// never blocks on ring space: the packet is queued (dev_queue_xmit) and
// the qdisc or the MCN-DMA engine performs T1-T3.
func (p *HostPort) Transmit(pr *sim.Proc, f netstack.Frame) {
	hd := p.drv
	if p.carrierDrop(f.Data, f.Pooled) {
		return
	}
	hd.dmaSetup(hd.CPU.Seq().Exec(hd.Costs.TxSetupCycles)).Run(pr)
	hd.enqueue(p, f.Data, f.Pooled)
}

// TransmitSteps is Transmit as steps of the sender's charge sequence
// (netstack.StepDev), for the pooled frame q.Buf.
func (p *HostPort) TransmitSteps(q *cpu.Seq) {
	hd := p.drv
	if p.carrierDrop(q.Buf, true) {
		return
	}
	hd.dmaSetup(q.Exec(hd.Costs.TxSetupCycles)).Hook(p.enqueue)
}

func (p *HostPort) onEnqueue(q *cpu.Seq) { p.drv.enqueue(p, q.Buf, true) }

// carrierDrop drops frame when the port's carrier is down. It fails
// fast: the DIMM is dead; let the sender's own recovery (TCP
// retransmission) find another path or wait out the flap.
func (p *HostPort) carrierDrop(frame []byte, pooled bool) bool {
	if p.carrier {
		return false
	}
	hd := p.drv
	hd.Recov.CarrierDrops++
	if pooled {
		hd.Stack.RecycleFrameBuf(frame)
	}
	return true
}

// ---- Polling agent and receive path (R1-R5) ----

// pollAll is the HR-timer tasklet: scan the tx-poll flag of every MCN DIMM
// (Sec. III-B "polling agent"). Ports with pending packets are drained in
// parallel service contexts, one per interface, the way per-interface NAPI
// contexts spread over cores; the core count still bounds real
// parallelism.
func (hd *HostDriver) pollAll(p *sim.Proc) {
	hd.PollRounds++
	hd.PollHits += hd.scan(p, hd.spawnDrain)
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
	src.alertn.Raise()
}

// serveAlert is src's ALERT_N handler, a callback chain with no process:
// it polls the asserting channel's DIMMs and starts a drain on each with
// packets ready. The chain's N is the index of the next port to poll.
func (src *HostPort) serveAlert(done func()) {
	src.drv.CPU.Seq().Hook(src.alertPoll).RunThen(done)
}

// onAlertPoll charges the flag check of the next port on src's channel.
func (src *HostPort) onAlertPoll(q *cpu.Seq) {
	hd := src.drv
	for ; q.N < len(hd.ports); q.N++ {
		if hd.ports[q.N].dimm.ChannelIdx == src.dimm.ChannelIdx {
			q.Exec(hd.Costs.PollCheckCycles).Hook(src.alertCheck)
			return
		}
	}
}

// onAlertCheck reads the polled port's flag and goes on to the next port.
func (src *HostPort) onAlertCheck(q *cpu.Seq) {
	hd := src.drv
	port := hd.ports[q.N]
	q.N++
	switch {
	case !port.dimm.Buf.TxPoll:
	case port.draining:
		// Latch the edge: the active drain rechecks before it exits, so
		// this wakeup cannot be lost.
		port.alertPending = true
	default:
		hd.spawnDrain(port)
	}
	src.onAlertPoll(q)
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
			msg := d.Buf.TX.Pop()
			if hd.ChanTap != nil {
				hd.ChanTap.Frame(p.Now(), netstack.TapHostPop, d.Name, msg)
			}
			// R2-R3: read the message through the cacheable mapping,
			// then invalidate the lines (Sec. III-B "memory mapping
			// unit"). R4: hand it to the packet forwarding engine. The
			// read, the invalidate and the forwarding charge run as one
			// chain.
			lines := int64(len(msg)/64 + 1)
			port.route(p, hd.CPU.Seq().While(port.read, len(msg)).
				Exec(hd.Costs.InvalidateCyclesPerLine*lines+hd.Costs.RxPerMsgCycles).
				Exec(hd.Costs.ForwardCycles), msg)
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

// route runs q, the receive and forwarding charges of msg, a message
// popped from port's DIMM, and hands msg to the forwarding engine; a
// frame for the fast-path transport instead gets a FastRx hook at the end
// of q and is recycled once the transport's steps are done.
func (port *HostPort) route(p *sim.Proc, q *cpu.Seq, msg []byte) {
	hd := port.drv
	if eth, fast := fastFrame(msg); !fast || hd.FastRx == nil || eth.Dst != port.hostMAC {
		q.Run(p)
		hd.forward(p, port, msg)
		return
	}
	q.Buf = msg
	q.Hook(port.fastRx).Run(p)
	hd.Stack.RecycleFrameBuf(msg)
}

// onFastRx ends a fast-path message's receive and forwarding charges: the
// transport's steps join the chain.
func (port *HostPort) onFastRx(q *cpu.Seq) { port.drv.FastRx(q, port, q.Buf) }

// onRead is the drain's R2 read of an n-byte message and its header
// through the host mapping: Dimm.HostAccess as a callback chain.
func (port *HostPort) onRead(n int, done func()) {
	d := port.dimm
	port.rdBytes, port.rdDone = sram.HeaderBytes+n, done
	port.rdXfer.BusTransfer(d.Global, hostBusBytes(port.rdBytes, !port.drv.Opts.UncachedCopies), d.HostLat, false, port.readRetired)
}

func (port *HostPort) onReadRetired() {
	done := port.rdDone
	port.rdDone = nil
	port.dimm.hostAccessed(port.rdBytes, false)
	done()
}

// relay hands a frame to tgt's T1-T3 machinery without ever blocking the
// calling (transmit or receive) context. With MCN-DMA the CPU programs a
// descriptor and the channel's engine moves the data; otherwise the CPU
// performs the copy (memcpy_to_mcn) from the port's qdisc. pooled hands
// frame to the job; any other frame may be aliased (broadcast fan-out,
// the uplink bridge), so the job takes a copy.
func (hd *HostDriver) relay(p *sim.Proc, tgt *HostPort, frame []byte, pooled bool) {
	hd.dmaSetup(hd.CPU.Seq()).Run(p)
	hd.enqueue(tgt, frame, pooled)
}

// dmaSetup appends the MCN-DMA descriptor setup, when the engines are on,
// to a charge sequence.
func (hd *HostDriver) dmaSetup(q *cpu.Seq) *cpu.Seq {
	if hd.Opts.DMA {
		q.Exec(hd.Costs.DMASetupCycles)
	}
	return q
}

// enqueue submits a frame to the engine that performs tgt's T1-T3.
func (hd *HostDriver) enqueue(tgt *HostPort, frame []byte, pooled bool) {
	e := tgt.qdisc
	if hd.Opts.DMA {
		e = hd.dmas[tgt.dimm.ChannelIdx]
	}
	e.submit(ringJob{kind: hostTx, port: tgt, msg: owned(hd.Stack, frame, pooled)})
}

// owned returns frame in a buffer a ring job can own: frame itself when it
// is pooled, else a copy in a buffer from s's frame pool.
func owned(s *netstack.Stack, frame []byte, pooled bool) []byte {
	if pooled {
		return frame
	}
	b := s.GetFrameBuf(len(frame))
	copy(b, frame)
	return b
}

// forward implements the packet forwarding engine rules F1-F4. frame is a
// buffer popped from a DIMM's TX ring, which forward owns: it recycles it
// once this function (or the relay machinery it hands off to) is done with
// it, or hands it on — to the stack, to a ring job, or to the
// conventional NIC, whose wire owns it until the receiving stack takes it.
// Its ForwardCycles charge ends the caller's charge sequence, whose FastRx
// hook has already taken the fast-path transport's frames.
func (hd *HostDriver) forward(p *sim.Proc, src *HostPort, frame []byte) {
	eth, ok := netstack.ParseEth(frame)
	if !ok {
		hd.Stack.RecycleFrameBuf(frame)
		return
	}
	if eth.Type != netstack.EtherTypeIPv4 && eth.Type != netstack.EtherTypeARP {
		// Non-IP traffic the fast-path transport (Sec. VII) did not take
		// at its FastRx hook: relayed between DIMMs, or dropped.
		if tgt, ok2 := hd.byMAC[eth.Dst]; ok2 && tgt != src && eth.Dst == tgt.mcnMAC {
			hd.RelayedDimm++
			hd.relay(p, tgt, frame, true)
			return
		}
		hd.Stack.RecycleFrameBuf(frame)
		return
	}
	switch {
	case eth.Dst == src.hostMAC:
		// F1: for this host. The frame changes hands once: the stack
		// keeps it in a TCP receive queue or recycles it.
		hd.DeliveredHost++
		hd.Stack.RxFrame(p, src, netstack.Frame{Data: frame, Pooled: true})
	case eth.Dst.IsBroadcast():
		// F2: deliver locally, relay to every other MCN node, and send
		// out the conventional NIC. The stack and the relays copy what
		// they keep; the NIC takes the buffer last.
		hd.Broadcasts++
		hd.Stack.RxFrame(p, src, netstack.Frame{Data: frame})
		for _, port := range hd.ports {
			if port != src {
				hd.relay(p, port, frame, false)
			}
		}
		if hd.uplink != nil {
			hd.uplink.Transmit(p, netstack.Frame{Data: frame, Pooled: true})
		} else {
			hd.Stack.RecycleFrameBuf(frame)
		}
	default:
		if tgt, ok2 := hd.byMAC[eth.Dst]; ok2 {
			if tgt == src {
				hd.Stack.RecycleFrameBuf(frame)
				return // a node talking to itself through us: drop
			}
			if eth.Dst == tgt.mcnMAC {
				// F3: MCN-to-MCN relay through the host. With MCN-DMA
				// the outbound copy is offloaded to the target
				// channel's engine, exactly like a host transmit.
				hd.RelayedDimm++
				hd.relay(p, tgt, frame, true)
				return
			}
			// Addressed to another host-side interface MAC: deliver up.
			hd.DeliveredHost++
			hd.Stack.RxFrame(p, tgt, netstack.Frame{Data: frame, Pooled: true})
			return
		}
		// F4: unknown MAC, hand to the conventional NIC (dev_queue_xmit),
		// which takes the buffer.
		if hd.uplink != nil {
			hd.SentNIC++
			hd.uplink.Transmit(p, netstack.Frame{Data: frame, Pooled: true})
		} else {
			hd.Stack.RecycleFrameBuf(frame)
		}
	}
}
