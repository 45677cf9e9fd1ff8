// Package dram models a DDR memory channel: banks with open-row state,
// activation/precharge/CAS timing, a shared data bus that bounds bandwidth,
// and byte counters used to report aggregate memory bandwidth utilization
// (Fig. 9 of the paper).
//
// Two kinds of channels exist in an MCN system and both use this model:
// the host's global channels (shared by all DIMMs on the channel, including
// MCN DIMMs' SRAM windows) and each MCN DIMM's private local channel
// between the MCN processor and the DRAM devices on the DIMM.
package dram

import (
	"github.com/mcn-arch/mcn/internal/memmap"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Config holds the timing parameters of a DDR channel.
type Config struct {
	Name string
	// DataRateMTs is the transfer rate in mega-transfers per second
	// (e.g. 3200 for DDR4-3200). Each transfer moves BeatBytes bytes.
	DataRateMTs float64
	// BeatBytes is the channel width in bytes (8 for a x64 DIMM).
	BeatBytes int
	// Core timings.
	TCL  sim.Duration // CAS latency
	TRCD sim.Duration // row activate to column
	TRP  sim.Duration // precharge
	// Banks is the number of banks (per rank; ranks are folded in).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
}

// DDR4_3200 returns the Table II configuration (DDR4-3200, 25.6GB/s peak).
func DDR4_3200() Config {
	return Config{
		Name:        "DDR4-3200",
		DataRateMTs: 3200,
		BeatBytes:   8,
		TCL:         13750 * sim.Picosecond,
		TRCD:        13750 * sim.Picosecond,
		TRP:         13750 * sim.Picosecond,
		Banks:       16,
		RowBytes:    8192,
	}
}

// DDR3_1066 returns the ConTutto prototype DIMM configuration.
func DDR3_1066() Config {
	return Config{
		Name:        "DDR3-1066",
		DataRateMTs: 1066,
		BeatBytes:   8,
		TCL:         13125 * sim.Picosecond,
		TRCD:        13125 * sim.Picosecond,
		TRP:         13125 * sim.Picosecond,
		Banks:       8,
		RowBytes:    8192,
	}
}

// PeakBandwidth returns the channel's theoretical bandwidth in bytes/sec.
func (c Config) PeakBandwidth() float64 { return c.DataRateMTs * 1e6 * float64(c.BeatBytes) }

// BurstTime returns the bus occupancy of one 64-byte burst.
func (c Config) BurstTime() sim.Duration {
	return sim.AtRate(memmap.LineBytes, c.PeakBandwidth())
}

type bank struct {
	openRow int64 // -1 = closed
}

// Channel is one simulated DDR channel.
type Channel struct {
	cfg   Config
	k     *sim.Kernel
	bus   *sim.Resource
	banks []bank
	// lastBurstEnd tracks when the data bus last finished a transfer.
	// A row-hit burst arriving within tCL of it is part of a dense
	// stream: the controller has already pipelined its CAS, so only bus
	// occupancy is charged.
	lastBurstEnd sim.Time
	// idle pools the Transfers that Access and BusTransfer run for
	// processes.
	idle []*Transfer

	// Stats
	Bytes    stats.Counter
	Reads    int64
	Writes   int64
	RowHits  int64
	RowMiss  int64
	BusyTime *stats.BusyMeter
}

// NewChannel creates a channel on kernel k.
func NewChannel(k *sim.Kernel, cfg Config) *Channel {
	banks := make([]bank, cfg.Banks)
	for i := range banks {
		banks[i].openRow = -1
	}
	return &Channel{cfg: cfg, k: k, bus: k.NewResource(1), banks: banks, BusyTime: &stats.BusyMeter{}}
}

// Access performs a blocking memory access of the given size starting at
// addr. The request is served one row at a time, the way an FR-FCFS
// scheduler batches row hits: each row chunk pays its activation once and
// then streams bursts at bus rate. Bytes moved are accounted as bus traffic
// (whole 64B bursts). The access runs as a Transfer, and the process parks
// once until the last row chunk retires.
func (c *Channel) Access(p *sim.Proc, addr uint64, write bool, bytes int) {
	if bytes <= 0 {
		return
	}
	t := c.transfer()
	t.Access(c, addr, write, bytes, p.ResumeFunc())
	p.Suspend()
	c.idle = append(c.idle, t)
}

// Read is Access with write=false.
func (c *Channel) Read(p *sim.Proc, addr uint64, bytes int) { c.Access(p, addr, false, bytes) }

// Write is Access with write=true.
func (c *Channel) Write(p *sim.Proc, addr uint64, bytes int) { c.Access(p, addr, true, bytes) }

// rowChunk returns the length of the part of [addr, end) that lies in
// addr's DRAM row.
func (c *Channel) rowChunk(addr, end uint64) int {
	rowEnd := (addr/uint64(c.cfg.RowBytes) + 1) * uint64(c.cfg.RowBytes)
	if rowEnd > end {
		rowEnd = end
	}
	return int(rowEnd - addr)
}

// prepRow classifies a chunk of n bytes within one DRAM row at the moment
// the bus is granted — row hit, primed hit, or miss — and returns its bus
// occupancy: the bank preparation followed by back-to-back bursts.
func (c *Channel) prepRow(addr uint64, n int) (busy sim.Duration, bursts int) {
	firstLine := addr / memmap.LineBytes
	lastLine := (addr + uint64(n) - 1) / memmap.LineBytes
	bursts = int(lastLine-firstLine) + 1

	rowIdx := addr / uint64(c.cfg.RowBytes)
	b := &c.banks[int(rowIdx)%len(c.banks)]
	row := int64(rowIdx / uint64(len(c.banks)))

	var prep sim.Duration
	switch {
	case b.openRow != row:
		prep = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCL
		c.RowMiss++
		b.openRow = row
	case c.k.Now() > c.lastBurstEnd.Add(c.cfg.TCL):
		// The pipeline drained; the CAS latency is exposed again.
		prep = c.cfg.TCL
		c.RowHits++
	default:
		// Dense stream: the controller already pipelined the CAS, only
		// bus occupancy applies.
		c.RowHits++
	}
	return prep + sim.Duration(bursts)*c.cfg.BurstTime(), bursts
}

// busBursts returns the bus occupancy of a bank-less transfer of n bytes.
func (c *Channel) busBursts(bytes int) (busy sim.Duration, bursts int) {
	bursts = (bytes + memmap.LineBytes - 1) / memmap.LineBytes
	return sim.Duration(bursts) * c.cfg.BurstTime(), bursts
}

// retire ends a bus occupancy of busy that moved bursts: it releases the
// bus and accounts the transfer.
func (c *Channel) retire(busy sim.Duration, bursts int, write bool) {
	c.bus.Release()
	c.lastBurstEnd = c.k.Now()
	c.BusyTime.AddBusy(busy)
	// Bandwidth is accounted as bus traffic (whole bursts, including the
	// padding of partial lines).
	c.Bytes.Add(c.k.Now(), int64(bursts)*memmap.LineBytes)
	if write {
		c.Writes += int64(bursts)
	} else {
		c.Reads += int64(bursts)
	}
}

// BusTransfer charges pure bus occupancy for n bytes in 64B bursts plus a
// one-time device latency, without bank timing. It models accesses to a
// buffer-device SRAM window (the MCN interface) that sits on this channel:
// such traffic contends for the channel's data bus with regular DRAM
// traffic but involves no DRAM banks. Like Access, it runs as a Transfer
// and parks the process once.
func (c *Channel) BusTransfer(p *sim.Proc, bytes int, deviceLat sim.Duration, write bool) {
	if bytes <= 0 {
		return
	}
	t := c.transfer()
	t.BusTransfer(c, bytes, deviceLat, write, p.ResumeFunc())
	p.Suspend()
	c.idle = append(c.idle, t)
}

// transfer takes an idle Transfer from the channel's pool for a process
// caller of Access or BusTransfer, which returns it when resumed.
func (c *Channel) transfer() *Transfer {
	if n := len(c.idle); n > 0 {
		t := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return t
	}
	return NewTransfer()
}

// A Transfer performs Access or BusTransfer for a kernel-callback state
// machine: each bus occupancy is a kernel callback and each bus wait an
// AcquireThen, at the instant and event sequence position a process
// sleeping and acquiring in their place would take. Channel.Access and
// Channel.BusTransfer are this machine with the caller's resume as done.
// A Transfer runs one operation at a time and allocates nothing after
// NewTransfer; its owner keeps it for reuse. done is its last step, so
// done may start the Transfer's next operation.
type Transfer struct {
	c       *Channel
	addr    uint64
	end     uint64 // Access: end of the request; BusTransfer: == addr
	n       int    // Access: bytes in the current row chunk
	write   bool
	row     bool // Access (bank timing) rather than BusTransfer
	busy    sim.Duration
	bursts  int
	done    func()
	acquire func() // bound once: t.acquireBus
	granted func() // bound once: t.onGrant
	retired func() // bound once: t.onRetire
}

// NewTransfer returns an idle transfer driver.
func NewTransfer() *Transfer {
	t := &Transfer{}
	t.acquire, t.granted, t.retired = t.acquireBus, t.onGrant, t.onRetire
	return t
}

// Access is Channel.Access on c; done runs when the last row chunk retires
// (at once if bytes <= 0).
func (t *Transfer) Access(c *Channel, addr uint64, write bool, bytes int, done func()) {
	if bytes <= 0 {
		done()
		return
	}
	t.c, t.addr, t.end, t.write, t.row, t.done = c, addr, addr+uint64(bytes), write, true, done
	t.nextRow()
}

// BusTransfer is Channel.BusTransfer on c; done runs when the bursts
// retire (at once if bytes <= 0).
func (t *Transfer) BusTransfer(c *Channel, bytes int, deviceLat sim.Duration, write bool, done func()) {
	if bytes <= 0 {
		done()
		return
	}
	t.c, t.addr, t.end, t.n, t.write, t.row, t.done = c, 0, 0, 0, write, false, done
	t.busy, t.bursts = c.busBursts(bytes)
	if deviceLat > 0 {
		c.k.After(deviceLat, t.acquire)
		return
	}
	t.acquireBus()
}

func (t *Transfer) nextRow() {
	t.n = t.c.rowChunk(t.addr, t.end)
	t.acquireBus()
}

func (t *Transfer) acquireBus() { t.c.bus.AcquireThen(t.granted) }

func (t *Transfer) onGrant() {
	if t.row {
		t.busy, t.bursts = t.c.prepRow(t.addr, t.n)
	}
	t.c.k.After(t.busy, t.retired)
}

func (t *Transfer) onRetire() {
	t.c.retire(t.busy, t.bursts, t.write)
	if t.addr += uint64(t.n); t.addr < t.end {
		t.nextRow()
		return
	}
	t.done()
}
