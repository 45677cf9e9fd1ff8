// Package ethdev models the conventional network path MCN is compared
// against: a 10GbE NIC with TX/RX descriptor rings and DMA engines, a
// full-duplex link with propagation latency, and a store-and-forward
// switch. The model follows Fig. 2 of the paper: packets cross the PCIe/DMA
// boundary into NIC buffers, serialize onto the wire, and arrive through an
// interrupt-driven (NAPI-style) receive path.
package ethdev

import (
	"hash/crc32"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// wireFrame is what travels between NICs and switches. The FCS is stamped
// lazily — only on links with a fault injector attached — so fault-free
// simulations pay nothing for it. A frame corrupted in flight keeps its
// original FCS, which is exactly how the receiver catches the flip.
//
// A pooled frame's data is a buffer from the frame pool of the stacks at
// both ends, owned by the wire: the receiving NIC hands it to its stack
// as a Pooled netstack.Frame (or GRO recycles it once it has copied its
// payload). A frame that exists in more than one place — a switch's
// flood, a link fault's corrupted copy — is not pooled.
type wireFrame struct {
	data   []byte
	fcs    uint32
	hasFCS bool
	pooled bool
}

// fcsOK reports whether the frame's payload still matches its FCS; frames
// without a stamped FCS (fault-free paths) always pass.
func (f wireFrame) fcsOK() bool {
	return !f.hasFCS || crc32.ChecksumIEEE(f.data) == f.fcs
}

// endpoint is anything that can accept a frame from a link.
type endpoint interface {
	receive(f wireFrame)
}

// Link is a full-duplex point-to-point cable: fixed propagation delay;
// serialization happens at the transmitting device.
type Link struct {
	k       *sim.Kernel
	Latency sim.Duration
	a, b    endpoint
	// inflight holds the frames on the cable, in both directions.
	inflight *delayLine[arrival]

	// Inject, when set, subjects every frame crossing the link (either
	// direction) to the site's drop/corrupt/flap decisions.
	Inject *faults.Site
}

// arrival is a frame on a link and the endpoint it arrives at.
type arrival struct {
	to endpoint
	f  wireFrame
}

// NewLink creates an unattached link with the given propagation delay.
func NewLink(k *sim.Kernel, latency sim.Duration) *Link {
	return &Link{k: k, Latency: latency, inflight: newDelayLine(k, func(a arrival) { a.to.receive(a.f) })}
}

// delayLine hands each value to deliver a fixed delay after send: a cable's
// propagation or a switch's forwarding pipeline. Every value waits the same
// time, so values leave in the order they entered, and one FIFO with one
// bound callback stands in for a closure per value.
type delayLine[T any] struct {
	k       *sim.Kernel
	q       *sim.Queue[T]
	deliver func(T)
	arrive  func() // d.pop, bound once
}

func newDelayLine[T any](k *sim.Kernel, deliver func(T)) *delayLine[T] {
	d := &delayLine[T]{k: k, q: sim.NewQueue[T](k, 0), deliver: deliver}
	d.arrive = d.pop
	return d
}

// send delivers v after delay, which must be the same for every value.
func (d *delayLine[T]) send(delay sim.Duration, v T) {
	d.q.TryPut(v)
	d.k.After(delay, d.arrive)
}

func (d *delayLine[T]) pop() {
	v, _ := d.q.TryGet()
	d.deliver(v)
}

func (l *Link) attach(e endpoint) {
	switch {
	case l.a == nil:
		l.a = e
	case l.b == nil:
		l.b = e
	default:
		panic("ethdev: link already has two endpoints")
	}
}

func (l *Link) deliver(from endpoint, f wireFrame) {
	var to endpoint
	switch from {
	case l.a:
		to = l.b
	case l.b:
		to = l.a
	default:
		panic("ethdev: deliver from unattached endpoint")
	}
	if to == nil {
		return // unconnected: frame vanishes
	}
	if l.Inject != nil {
		if !f.hasFCS {
			f.fcs = crc32.ChecksumIEEE(f.data)
			f.hasFCS = true
		}
		switch l.Inject.Frame(l.k.Now()) {
		case faults.Drop:
			return
		case faults.Corrupt:
			f.data = l.Inject.CorruptCopy(f.data) // FCS left stale on purpose
			f.pooled = false
		}
	}
	l.inflight.send(l.Latency, arrival{to, f})
}

// Config holds NIC parameters.
type Config struct {
	Name           string
	MAC            netstack.MAC
	MTU            int
	LinkBps        float64 // wire rate in bits/sec
	TxRing         int     // descriptors
	RxRing         int
	DMALat         sim.Duration // PCIe + NIC pipeline latency per transfer
	TSO            bool
	LRO            bool  // receive-side coalescing of in-order TCP bursts
	HWChecksum     bool  // hardware TCP checksum offload
	DriverTxCycles int64 // descriptor setup + doorbell
	DriverRxCycles int64 // per packet in the NAPI poll loop
}

// DefaultConfig returns a 10GbE NIC per Table II.
func DefaultConfig(name string, mac netstack.MAC) Config {
	return Config{
		Name:           name,
		MAC:            mac,
		MTU:            1500,
		LinkBps:        10e9,
		TxRing:         256,
		RxRing:         256,
		DMALat:         600 * sim.Nanosecond,
		TSO:            true,
		LRO:            true,
		HWChecksum:     true,
		DriverTxCycles: 500,
		DriverRxCycles: 2200,
	}
}

// NIC is a simulated Ethernet adapter bound to one node's CPU, memory
// channel (for DMA traffic) and stack.
//
// Its roles are callback state machines that take the events their
// process forms did, at the same (at, seq): the driver's transmit is a
// charge sequence (StepDev), the TX engine DMAs and serializes the ring's
// frames, and NAPI takes each receive burst through its interrupt, DMA
// and GRO with no process. Only the burst's delivery into the stack runs
// in a process, the napi process, which the chain resumes in place.
type NIC struct {
	cfg   Config
	k     *sim.Kernel
	cpu   *cpu.CPU
	mem   *dram.Channel
	stack *netstack.Stack
	link  *Link

	txq *sim.Queue[wireFrame]
	rxq *sim.Queue[wireFrame]

	// calls holds the idle transmit calls.
	calls []*txCall

	// The TX engine: the frame on its way out, and its DMA read.
	txCur  wireFrame
	txXfer *dram.Transfer

	// The receive burst NAPI is taking, the frames its DMA has written,
	// and what goes up to the stack. The scratch is reused every
	// interrupt, so a burst allocates nothing.
	burst  []wireFrame
	frames []netstack.Frame
	up     []netstack.Frame
	rxXfer *dram.Transfer
	gro    netstack.GRO
	// deliver resumes the napi process.
	deliver func()

	// bound once: onTxNext, onTxWake, onTxRead, onTxWire, onTxSent,
	// onRxWake, onRxIRQ, onRxGather, onRxWritten, waitRoom
	txNext, txWake, txRead, txWire, txSent func()
	rxWake, rxIRQ, rxGather, rxWritten     func()
	room                                   func(int, func())

	// Tap, when set, observes every frame at the NIC's four internal
	// sites: netstack.TapDMATx and TapWireStart on the transmitter,
	// TapWireEnd and TapDMARx on the receiver, named by the NIC.
	Tap netstack.Tap

	// Stats.
	TxBytes, RxBytes stats.Counter
	TxFrames         int64
	RxFrames         int64
	RxDropped        int64
	Recov            stats.RecoveryCounters
	Busy             *stats.BusyMeter
}

// New creates a NIC and starts its napi process. Its TX engine takes its
// first look at the ring in an event at the current instant, as a process
// started here would. mem may be nil (DMA then costs only latency, not
// memory bandwidth).
func New(k *sim.Kernel, c *cpu.CPU, mem *dram.Channel, s *netstack.Stack, cfg Config, link *Link) *NIC {
	n := newNIC(k, c, mem, s, cfg, link)
	k.At(k.Now(), n.txNext)
	k.Go(cfg.Name+"/napi", n.napi)
	return n
}

// newNIC returns a NIC attached to link whose TX engine and napi process
// are not started.
func newNIC(k *sim.Kernel, c *cpu.CPU, mem *dram.Channel, s *netstack.Stack, cfg Config, link *Link) *NIC {
	n := &NIC{
		cfg: cfg, k: k, cpu: c, mem: mem, stack: s, link: link,
		txq:    sim.NewQueue[wireFrame](k, cfg.TxRing),
		rxq:    sim.NewQueue[wireFrame](k, cfg.RxRing),
		txXfer: dram.NewTransfer(),
		rxXfer: dram.NewTransfer(),
		Busy:   &stats.BusyMeter{},
	}
	n.txNext, n.txWake, n.txRead, n.txWire, n.txSent = n.onTxNext, n.onTxWake, n.onTxRead, n.onTxWire, n.onTxSent
	n.rxWake, n.rxIRQ, n.rxGather, n.rxWritten = n.onRxWake, n.onRxIRQ, n.onRxGather, n.onRxWritten
	n.room = n.waitRoom
	link.attach(n)
	return n
}

// NetDev interface.

func (n *NIC) Name() string { return n.cfg.Name }

func (n *NIC) MAC() netstack.MAC { return n.cfg.MAC }

func (n *NIC) MTU() int { return n.cfg.MTU }

func (n *NIC) Features() netstack.Features {
	return netstack.Features{TSO: n.cfg.TSO, HWChecksum: n.cfg.HWChecksum}
}

// Transmit implements the driver TX path: write descriptors, ring the
// doorbell, and enqueue into the TX ring, waiting while the ring is full
// (the NETDEV_TX_BUSY backpressure). It runs TransmitSteps' chain for the
// calling process, which parks once. A frame that is not Pooled goes on
// the wire as it is, not owned by it.
func (n *NIC) Transmit(p *sim.Proc, f netstack.Frame) {
	q := n.cpu.Seq()
	n.steps(q, f.Data, f.TSOSegSize, f.Pooled)
	q.Run(p)
}

// TransmitSteps is Transmit as steps of the sender's charge sequence
// (netstack.StepDev): the DriverTxCycles charge, then a hook that puts
// the frame's segments into the TX ring, behind a wait with no core held
// whenever the ring is full.
func (n *NIC) TransmitSteps(q *cpu.Seq) { n.steps(q, q.Buf, q.N, true) }

func (n *NIC) steps(q *cpu.Seq, frame []byte, seg int, pooled bool) {
	var c *txCall
	if i := len(n.calls) - 1; i >= 0 {
		c, n.calls = n.calls[i], n.calls[:i]
	} else {
		c = &txCall{n: n}
		c.put = c.onPut
	}
	c.frame, c.seg, c.off, c.pooled = frame, seg, 0, pooled
	q.Exec(n.cfg.DriverTxCycles).Hook(c.put)
}

// A txCall is one transmit on its way into the TX ring: the frame and,
// for a TSO chunk, the payload offset of the next segment to cut (O1-O4:
// the NIC hardware segments; no CPU cost). A chunk is cut one segment at
// a time as ring slots free up. txCalls are pooled per NIC and their hook
// bound once.
type txCall struct {
	n      *NIC
	frame  []byte
	seg    int // TSO segment size, 0 for none
	off    int
	pooled bool
	put    func(*cpu.Seq) // onPut, bound once
}

// onPut fills the TX ring with the call's segments. With the ring full it
// appends a wait for room and itself again; once the last segment is in,
// a pooled chunk that was cut goes back to the pool and the call is done.
func (c *txCall) onPut(q *cpu.Seq) {
	n := c.n
	for {
		if n.txq.Len() >= n.cfg.TxRing {
			q.Wait(n.room, 0).Hook(c.put)
			return
		}
		wf, next := wireFrame{data: c.frame, pooled: c.pooled}, 0
		if c.seg > 0 {
			wf.data, next = netstack.SegmentTSO(n.stack, c.frame, c.seg, c.off)
			// A cut segment is a pool buffer; an uncut frame keeps the
			// call's ownership.
			wf.pooled = wf.pooled || next != 0 || c.off != 0
		}
		n.txq.TryPut(wf)
		if next == 0 {
			if c.off != 0 && c.pooled {
				n.stack.RecycleFrameBuf(c.frame)
			}
			c.frame = nil
			n.calls = append(n.calls, c)
			return
		}
		c.off = next
	}
}

// waitRoom is the TX ring's wait step: done runs where a process blocked
// on the full ring would be woken.
func (n *NIC) waitRoom(_ int, done func()) { n.txq.WhenRoom(done) }

// tap reports a frame at one of the NIC's sites.
func (n *NIC) tap(site netstack.TapSite, data []byte) {
	if n.Tap != nil {
		n.Tap.Frame(n.k.Now(), site, n.cfg.Name, data)
	}
}

// The TX engine is the NIC-side DMA + serializer. DMA latency is paid at
// the start of a burst; within a burst DMA is pipelined behind
// serialization. onTxNext is its loop head: the next frame, or a wait for
// one, whose wake starts a burst.
func (n *NIC) onTxNext() { n.txStart(false) }

func (n *NIC) onTxWake() { n.txStart(true) }

func (n *NIC) txStart(burst bool) {
	wf, ok := n.txq.TryGet()
	if !ok {
		n.txq.WhenItem(n.txWake)
		return
	}
	n.txCur = wf
	n.tap(netstack.TapDMATx, wf.data)
	if burst {
		n.k.After(n.cfg.DMALat, n.txRead)
		return
	}
	n.onTxRead()
}

// onTxRead DMAs the frame from host memory.
func (n *NIC) onTxRead() {
	if n.mem != nil {
		n.txXfer.Access(n.mem, 0x4000_0000, false, len(n.txCur.data), n.txWire)
		return
	}
	n.onTxWire()
}

// onTxWire serializes the frame onto the wire.
func (n *NIC) onTxWire() {
	n.tap(netstack.TapWireStart, n.txCur.data)
	n.k.After(n.serialization(len(n.txCur.data)), n.txSent)
}

// serialization is the wire time of an n-byte frame plus Ethernet
// overhead (preamble 8B, FCS 4B, IFG 12B).
func (n *NIC) serialization(bytes int) sim.Duration {
	return sim.AtRate(int64(bytes+24), n.cfg.LinkBps/8)
}

func (n *NIC) onTxSent() {
	wf := n.txCur
	n.txCur = wireFrame{}
	n.Busy.AddBusy(n.serialization(len(wf.data)))
	n.TxBytes.Add(n.k.Now(), int64(len(wf.data)))
	n.TxFrames++
	n.link.deliver(n, wf)
	n.onTxNext()
}

// receive is called by the link when a frame fully arrives. The MAC layer
// verifies the FCS before the frame reaches the RX ring: a corrupted frame
// is dropped here and the loss is recovered end-to-end (TCP retransmit).
func (n *NIC) receive(f wireFrame) {
	if !f.fcsOK() {
		n.Recov.FCSDrops++
		return
	}
	n.tap(netstack.TapWireEnd, f.data)
	if !n.rxq.TryPut(f) {
		n.RxDropped++ // RX ring overflow
		n.recycle(f)
	}
}

// recycle returns a pooled wire frame to the pool.
func (n *NIC) recycle(f wireFrame) {
	if f.pooled {
		n.stack.RecycleFrameBuf(f.data)
	}
}

// NAPI is the receive service: DMA into the RX ring, an interrupt for the
// first frame of a burst, then a poll that drains (and LRO-coalesces)
// pending frames before re-enabling interrupts. onRxWake is its loop
// head: it takes a burst's first frame, or waits for one. Burst-start
// costs: DMA pipeline fill, then the hardware interrupt.
func (n *NIC) onRxWake() {
	wf, ok := n.rxq.TryGet()
	if !ok {
		n.rxq.WhenItem(n.rxWake)
		return
	}
	n.burst = append(n.burst[:0], wf)
	n.k.After(n.cfg.DMALat, n.rxIRQ)
}

func (n *NIC) onRxIRQ() {
	n.cpu.ExecThen(n.cpu.CyclesDur(n.cpu.Costs.IRQEntryCycles+n.cpu.Costs.IRQExitCycles), n.rxGather)
}

// onRxGather takes the rest of the burst, then DMAs every frame into
// memory (pipelined: memory bandwidth is charged, per-frame PCIe latency
// is hidden).
func (n *NIC) onRxGather() {
	for {
		more, ok := n.rxq.TryGet()
		if !ok {
			break
		}
		n.burst = append(n.burst, more)
	}
	n.frames = n.frames[:0]
	n.rxWrite()
}

// rxWrite DMAs the burst's next frame, or hands the written burst up.
func (n *NIC) rxWrite() {
	i := len(n.frames)
	if i == len(n.burst) {
		n.up = n.frames
		if n.cfg.LRO {
			n.up = n.gro.Coalesce(n.stack, n.frames, 64<<10)
		}
		n.deliver()
		return
	}
	if n.mem != nil {
		n.rxXfer.Access(n.mem, 0x4800_0000, true, len(n.burst[i].data), n.rxWritten)
		return
	}
	n.onRxWritten()
}

func (n *NIC) onRxWritten() {
	wf := n.burst[len(n.frames)]
	n.tap(netstack.TapDMARx, wf.data)
	n.frames = append(n.frames, netstack.Frame{Data: wf.data, Pooled: wf.pooled})
	n.rxWrite()
}

// napi starts the NAPI chain from its loop head and waits for it to
// resume the process with a burst in memory. It delivers the burst —
// each frame's driver charge and the stack's receive path — and goes
// round again. Each frame changes hands once: the stack owns the frames
// GRO built and the burst's pooled wire frames once they are delivered
// (GRO recycled the ones it merged), and copies from the others what it
// keeps.
func (n *NIC) napi(p *sim.Proc) {
	n.deliver = p.ResumeFunc()
	for {
		n.onRxWake()
		p.Suspend()
		for _, f := range n.up {
			n.deliverUp(p, f)
		}
		clear(n.burst)
		clear(n.frames)
	}
}

func (n *NIC) deliverUp(p *sim.Proc, f netstack.Frame) {
	n.cpu.Exec(p, n.cfg.DriverRxCycles)
	n.RxBytes.Add(p.Now(), int64(len(f.Data)))
	n.RxFrames++
	n.stack.RxFrame(p, n, f)
}

// Switch is an output-queued store-and-forward Ethernet switch with MAC
// learning: source addresses are learned per ingress port and unknown
// unicast floods, so stations behind a port (such as MCN nodes bridged
// through their host) become reachable without static configuration.
type Switch struct {
	k       *sim.Kernel
	latency sim.Duration // forwarding pipeline latency
	rateBps float64
	ports   []*switchPort
	fdb     map[netstack.MAC]*switchPort

	Forwarded int64
	Flooded   int64
	Dropped   int64
	Recov     stats.RecoveryCounters
}

// A switchPort's transmitter is a callback state machine: it serializes
// the output queue's frames one at a time and waits for the next when the
// queue runs dry, taking the events a process would have.
type switchPort struct {
	sw   *Switch
	link *Link
	outq *sim.Queue[wireFrame]
	// pipeline holds serialized frames for the forwarding latency.
	pipeline *delayLine[wireFrame]
	cur      wireFrame // the frame being serialized
	// bound once: onNext, onSent
	next, sent func()
}

// NewSwitch creates a switch with the given per-port rate and forwarding
// latency.
func NewSwitch(k *sim.Kernel, rateBps float64, latency sim.Duration) *Switch {
	return &Switch{
		k: k, latency: latency, rateBps: rateBps,
		fdb: make(map[netstack.MAC]*switchPort),
	}
}

// AttachPort connects a link to a new switch port; hostMAC populates the
// forwarding table (static: no flooding/learning needed in a simulation
// where topology is known). The port's transmitter takes its first look
// at the output queue in an event at the current instant.
func (s *Switch) AttachPort(link *Link, hostMAC netstack.MAC) {
	s.k.At(s.k.Now(), s.attach(link, hostMAC).next)
}

// attach returns a new port on link whose transmitter is not started.
func (s *Switch) attach(link *Link, hostMAC netstack.MAC) *switchPort {
	p := &switchPort{sw: s, link: link, outq: sim.NewQueue[wireFrame](s.k, 8192)}
	p.pipeline = newDelayLine(s.k, func(f wireFrame) { p.link.deliver(p, f) })
	p.next, p.sent = p.onNext, p.onSent
	link.attach(p)
	s.ports = append(s.ports, p)
	s.fdb[hostMAC] = p
	return p
}

func (p *switchPort) receive(f wireFrame) {
	s := p.sw
	// Verify the FCS at ingress so a frame corrupted on the upstream link
	// dies at the first hop instead of being forwarded cluster-wide.
	if !f.fcsOK() {
		s.Recov.FCSDrops++
		return
	}
	eth, ok := netstack.ParseEth(f.data)
	if !ok {
		s.Dropped++
		return
	}
	// Learn the source station on this port.
	if !eth.Src.IsBroadcast() {
		s.fdb[eth.Src] = p
	}
	if eth.Dst.IsBroadcast() {
		f.pooled = false // every other port carries the same buffer
		for _, out := range s.ports {
			if out != p {
				s.enqueue(out, f)
			}
		}
		return
	}
	out, ok := s.fdb[eth.Dst]
	if !ok {
		// Unknown unicast: flood (stations learned later stop this).
		s.Flooded++
		f.pooled = false
		for _, o := range s.ports {
			if o != p {
				s.enqueue(o, f)
			}
		}
		return
	}
	if out == p {
		s.Dropped++
		return
	}
	s.enqueue(out, f)
}

func (s *Switch) enqueue(out *switchPort, f wireFrame) {
	if !out.outq.TryPut(f) {
		s.Dropped++ // output queue congestion loss
		return
	}
	s.Forwarded++
}

// onNext serializes the next queued frame, or waits for one. Serialization
// occupies the port; the store-and-forward pipeline latency is added to
// the delivery time but overlaps with the next frame's serialization.
func (p *switchPort) onNext() {
	f, ok := p.outq.TryGet()
	if !ok {
		p.outq.WhenItem(p.next)
		return
	}
	p.cur = f
	p.sw.k.After(sim.AtRate(int64(len(f.data)+24), p.sw.rateBps/8), p.sent)
}

func (p *switchPort) onSent() {
	f := p.cur
	p.cur = wireFrame{}
	p.pipeline.send(p.sw.latency, f)
	p.onNext()
}
