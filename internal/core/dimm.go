package core

import (
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/sram"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Dimm is the MCN DIMM hardware: the SRAM communication buffer inside the
// buffer device, reachable from the host through the DIMM's (global) memory
// channel and from the MCN processor through its memory controller's
// on-chip interconnect (Fig. 3(a)).
type Dimm struct {
	K    *sim.Kernel
	Name string
	// Buf is the 96KB SRAM with the Fig. 4 layout.
	Buf *sram.Buffer
	// Global is the host memory channel this DIMM is installed on. SRAM
	// window accesses from the host contend on it with everything else
	// on the channel.
	Global *dram.Channel
	// ChannelIdx is the index of Global among the host's channels (used
	// by the interleave-aware copy and the per-channel DMA engines).
	ChannelIdx int
	// HostLat is the buffer-device access latency seen from the host MC.
	HostLat sim.Duration
	// McnLat / McnBW describe the MCN-processor side of the SRAM (on-chip
	// interconnect).
	McnLat sim.Duration
	McnBW  float64 // bytes/sec

	// rxIRQ is wired by the MCN-side driver: the MCN interface raises it
	// when the host publishes packets into the RX ring (Sec. III-A).
	rxIRQ func()
	// alertN is wired by the host-side driver when the ALERT_N
	// optimization is on: the DIMM asserts it when tx-poll goes 0->1.
	alertN func()
	// armRxWatchdog is wired by the MCN-side driver; InjectFaults calls it
	// so the RX recovery watchdog runs only under fault injection.
	armRxWatchdog func()

	// Fault-injection sites (nil when no injector is attached):
	// InjectAlert/InjectIRQ can swallow interrupt edges, InjectChan models
	// ECC-detected memory-channel corruption (message discarded by the
	// driver).
	InjectAlert *faults.Site
	InjectIRQ   *faults.Site
	InjectChan  *faults.Site

	// offline models a dead memory-channel interface: the host side of
	// the DIMM stops responding and interrupt edges are lost, while the
	// MCN processor behind it keeps running.
	offline bool

	// Stats.
	HostReads  stats.Counter // bytes the host read from the SRAM
	HostWrites stats.Counter // bytes the host wrote to the SRAM
	McnAccess  stats.Counter // bytes moved on the MCN side
	RxIRQs     int64
	Alerts     int64
}

// NewDimm creates an MCN DIMM on the given host channel.
func NewDimm(k *sim.Kernel, name string, global *dram.Channel, channelIdx int) *Dimm {
	return &Dimm{
		K: k, Name: name,
		Buf:        sram.NewDefault(),
		Global:     global,
		ChannelIdx: channelIdx,
		HostLat:    40 * sim.Nanosecond,
		McnLat:     25 * sim.Nanosecond,
		McnBW:      sim.GBps(25.6),
	}
}

// SetRxIRQ wires the interrupt line into the MCN processor.
func (d *Dimm) SetRxIRQ(fn func()) { d.rxIRQ = fn }

// SetAlertN wires the ALERT_N line toward the host memory controller.
func (d *Dimm) SetAlertN(fn func()) { d.alertN = fn }

// SetOffline changes the DIMM's host-interface liveness (fault injection:
// a whole-DIMM crash/flap window).
func (d *Dimm) SetOffline(v bool) { d.offline = v }

// Online reports whether the host side of the DIMM is responding.
func (d *Dimm) Online() bool { return !d.offline }

// RaiseRxIRQ fires the MCN-side interrupt (host calls this after setting
// rx-poll). The edge is lost if the DIMM is offline or the injector
// suppresses it; the ring data survives and the MCN-side watchdog recovers.
func (d *Dimm) RaiseRxIRQ() {
	d.RxIRQs++
	if d.offline || (d.InjectIRQ != nil && d.InjectIRQ.SuppressEdge()) {
		return
	}
	if d.rxIRQ != nil {
		d.rxIRQ()
	}
}

// AssertAlert fires ALERT_N toward the host (MCN-side driver calls this
// after setting tx-poll when the optimization is enabled). A suppressed or
// offline edge is lost; the host watchdog recovers the stalled ring.
func (d *Dimm) AssertAlert() {
	d.Alerts++
	if d.offline || (d.InjectAlert != nil && d.InjectAlert.SuppressEdge()) {
		return
	}
	if d.alertN != nil {
		d.alertN()
	}
}

// HostAccess charges a host-side access to the SRAM window: bus bursts on
// the DIMM's global channel plus the buffer-device latency.
func (d *Dimm) HostAccess(p *sim.Proc, bytes int, write, writeCombining bool) {
	if bytes <= 0 {
		return
	}
	d.Global.BusTransfer(p, hostBusBytes(bytes, writeCombining), d.HostLat, write)
	d.hostAccessed(bytes, write)
}

// hostBusBytes returns the bus traffic of a host access of n bytes. When
// writeCombining is false the access degrades to 8-byte uncached
// transactions, each of which still occupies a full burst slot on the DDR
// bus (this is why the naive ioremap mapping is slow, Sec. III-B).
func hostBusBytes(n int, writeCombining bool) int {
	if writeCombining {
		return n
	}
	// Every double word becomes its own burst on the wire.
	return (n + 7) / 8 * 64
}

// hostAccessed accounts a completed host access of n bytes.
func (d *Dimm) hostAccessed(n int, write bool) {
	if write {
		d.HostWrites.Add(d.K.Now(), int64(n))
	} else {
		d.HostReads.Add(d.K.Now(), int64(n))
	}
}

// McnAccessCost charges an MCN-processor-side access to the SRAM through
// the on-chip interconnect.
func (d *Dimm) McnAccessCost(p *sim.Proc, bytes int) {
	if bytes <= 0 {
		return
	}
	p.Sleep(d.mcnAccessTime(bytes))
	d.McnAccess.Add(p.Now(), int64(bytes))
}

// mcnAccessTime is the on-chip interconnect time of an n-byte SRAM access.
func (d *Dimm) mcnAccessTime(n int) sim.Duration {
	return d.McnLat + sim.AtRate(int64(n), d.McnBW)
}
