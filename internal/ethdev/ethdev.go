// Package ethdev models the conventional network path MCN is compared
// against: a 10GbE NIC with TX/RX descriptor rings and DMA engines, a
// full-duplex link with propagation latency, and a store-and-forward
// switch. The model follows Fig. 2 of the paper: packets cross the PCIe/DMA
// boundary into NIC buffers, serialize onto the wire, and arrive through an
// interrupt-driven (NAPI-style) receive path.
package ethdev

import (
	"fmt"
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
type wireFrame struct {
	data   []byte
	fcs    uint32
	hasFCS bool
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
type NIC struct {
	cfg   Config
	k     *sim.Kernel
	cpu   *cpu.CPU
	mem   *dram.Channel
	stack *netstack.Stack
	link  *Link

	txq *sim.Queue[wireFrame]
	rxq *sim.Queue[wireFrame]

	// Per-NIC scratch reused across napi rounds so draining a burst
	// allocates nothing: the burst gather, the frame list and the GRO
	// state are rebuilt in place every interrupt. Only the napi process
	// touches them.
	burstScratch []wireFrame
	frameScratch [][]byte
	gro          netstack.GRO

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

// New creates a NIC and starts its TX engine and RX service processes.
// mem may be nil (DMA then costs only latency, not memory bandwidth).
func New(k *sim.Kernel, c *cpu.CPU, mem *dram.Channel, s *netstack.Stack, cfg Config, link *Link) *NIC {
	n := &NIC{
		cfg: cfg, k: k, cpu: c, mem: mem, stack: s, link: link,
		txq:  sim.NewQueue[wireFrame](k, cfg.TxRing),
		rxq:  sim.NewQueue[wireFrame](k, cfg.RxRing),
		Busy: &stats.BusyMeter{},
	}
	link.attach(n)
	k.Go(cfg.Name+"/tx-engine", n.txEngine)
	k.Go(cfg.Name+"/napi", n.napi)
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
// doorbell, and enqueue into the TX ring (blocking when the ring is full —
// the NETDEV_TX_BUSY backpressure). The wire aliases the frames it
// carries; a pooled TSO chunk is recycled once segmentation has copied it.
func (n *NIC) Transmit(p *sim.Proc, f netstack.Frame) {
	n.cpu.Exec(p, n.cfg.DriverTxCycles)
	frames := [][]byte{f.Data}
	if f.TSOSegSize > 0 {
		// O1-O4: the NIC hardware segments; no CPU cost.
		frames = netstack.SegmentTSO(f.Data, f.TSOSegSize)
		if f.Pooled && len(frames) > 1 {
			n.stack.RecycleFrameBuf(f.Data)
		}
	}
	for _, fr := range frames {
		n.txq.Put(p, wireFrame{data: fr})
	}
}

// tap reports a frame at one of the NIC's sites.
func (n *NIC) tap(site netstack.TapSite, data []byte) {
	if n.Tap != nil {
		n.Tap.Frame(n.k.Now(), site, n.cfg.Name, data)
	}
}

// txEngine is the NIC-side DMA + serializer. DMA latency is paid at the
// start of a burst; within a burst DMA is pipelined behind serialization.
func (n *NIC) txEngine(p *sim.Proc) {
	for {
		burstStart := n.txq.Len() == 0
		wf, ok := n.txq.Get(p)
		if !ok {
			return
		}
		n.tap(netstack.TapDMATx, wf.data)
		// DMA read of the frame from host memory.
		if burstStart {
			p.Sleep(n.cfg.DMALat)
		}
		if n.mem != nil {
			n.mem.Read(p, 0x4000_0000, len(wf.data))
		}
		n.tap(netstack.TapWireStart, wf.data)
		// Serialization: frame + Ethernet overhead (preamble 8B, FCS 4B,
		// IFG 12B).
		ser := sim.AtRate(int64(len(wf.data)+24), n.cfg.LinkBps/8)
		p.Sleep(ser)
		n.Busy.AddBusy(ser)
		n.TxBytes.Add(p.Now(), int64(len(wf.data)))
		n.TxFrames++
		n.link.deliver(n, wf)
	}
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
	}
}

// napi is the receive service: DMA into the RX ring, an interrupt for the
// first frame of a burst, then a poll loop that drains (and LRO-coalesces)
// pending frames before re-enabling interrupts.
func (n *NIC) napi(p *sim.Proc) {
	for {
		wf, ok := n.rxq.Get(p)
		if !ok {
			return
		}
		// Burst-start costs: DMA pipeline fill + hardware interrupt.
		p.Sleep(n.cfg.DMALat)
		n.cpu.Exec(p, n.cpu.Costs.IRQEntryCycles+n.cpu.Costs.IRQExitCycles)

		burst := append(n.burstScratch[:0], wf)
		for {
			more, ok := n.rxq.TryGet()
			if !ok {
				break
			}
			burst = append(burst, more)
		}
		// DMA all frames of the burst into memory (pipelined: memory
		// bandwidth is charged, per-frame PCIe latency is hidden).
		frames := n.frameScratch[:0]
		for _, b := range burst {
			if n.mem != nil {
				n.mem.Write(p, 0x4800_0000, len(b.data))
			}
			n.tap(netstack.TapDMARx, b.data)
			frames = append(frames, b.data)
		}
		n.burstScratch = burst
		n.frameScratch = frames
		if n.cfg.LRO {
			frames = n.gro.Coalesce(n.stack, frames, 64<<10)
		}
		for i, fr := range frames {
			n.deliverUp(p, fr)
			// The stack copies what it keeps: a frame GRO built is
			// dead once delivered. The others may be aliased by a
			// switch's flood, so the collector takes them.
			if n.cfg.LRO && n.gro.Built(i) {
				n.stack.RecycleFrameBuf(fr)
			}
		}
	}
}

func (n *NIC) deliverUp(p *sim.Proc, frame []byte) {
	n.cpu.Exec(p, n.cfg.DriverRxCycles)
	n.RxBytes.Add(p.Now(), int64(len(frame)))
	n.RxFrames++
	n.stack.RxFrame(p, n, frame)
}

// Switch is an output-queued store-and-forward Ethernet switch with MAC
// learning: source addresses are learned per ingress port and unknown
// unicast floods, so stations behind a port (such as MCN nodes bridged
// through their host) become reachable without static configuration.
type Switch struct {
	k       *sim.Kernel
	name    string
	latency sim.Duration // forwarding pipeline latency
	rateBps float64
	ports   []*switchPort
	fdb     map[netstack.MAC]*switchPort

	Forwarded int64
	Flooded   int64
	Dropped   int64
	Recov     stats.RecoveryCounters
}

type switchPort struct {
	sw   *Switch
	link *Link
	outq *sim.Queue[wireFrame]
	// pipeline holds serialized frames for the forwarding latency.
	pipeline *delayLine[wireFrame]
}

// NewSwitch creates a switch with the given per-port rate and forwarding
// latency.
func NewSwitch(k *sim.Kernel, name string, rateBps float64, latency sim.Duration) *Switch {
	return &Switch{
		k: k, name: name, latency: latency, rateBps: rateBps,
		fdb: make(map[netstack.MAC]*switchPort),
	}
}

// AttachPort connects a link to a new switch port; hostMAC populates the
// forwarding table (static: no flooding/learning needed in a simulation
// where topology is known).
func (s *Switch) AttachPort(link *Link, hostMAC netstack.MAC) {
	p := &switchPort{sw: s, link: link, outq: sim.NewQueue[wireFrame](s.k, 8192)}
	p.pipeline = newDelayLine(s.k, func(f wireFrame) { p.link.deliver(p, f) })
	link.attach(p)
	s.ports = append(s.ports, p)
	s.fdb[hostMAC] = p
	s.k.Go(fmt.Sprintf("%s/port%d", s.name, len(s.ports)-1), p.transmitter)
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

func (p *switchPort) transmitter(pr *sim.Proc) {
	for {
		f, ok := p.outq.Get(pr)
		if !ok {
			return
		}
		// Serialization occupies the port; the store-and-forward
		// pipeline latency is added to the delivery time but overlaps
		// with the next frame's serialization.
		pr.Sleep(sim.AtRate(int64(len(f.data)+24), p.sw.rateBps/8))
		p.pipeline.send(p.sw.latency, f)
	}
}
