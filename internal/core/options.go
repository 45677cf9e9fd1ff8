// Package core implements the paper's contribution: the Memory Channel
// Network. It contains the MCN DIMM device model (SRAM communication buffer
// behind a buffered-DIMM DDR interface), the host-side and MCN-side
// drivers that expose that buffer as virtual Ethernet interfaces, the
// host's packet forwarding engine (rules F1-F4), the polling agents
// (tasklet and HR-timer), and the optional optimizations of Sec. IV:
// ALERT_N DIMM interrupts, IPv4 checksum bypass, 9KB MTU, TSO, and the
// MCN-DMA engines.
package core

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/sim"
)

// OptLevel selects one of the paper's cumulative optimization levels
// (Table I).
type OptLevel int

const (
	// MCN0 is the baseline MCN with HR-timer polling.
	MCN0 OptLevel = iota
	// MCN1 adds the ALERT_N-based MCN DIMM interrupt mechanism.
	MCN1
	// MCN2 adds IPv4/TCP checksum bypassing.
	MCN2
	// MCN3 increases the MTU to 9KB.
	MCN3
	// MCN4 enables TCP segmentation offload.
	MCN4
	// MCN5 enables the MCN-DMA engines.
	MCN5
)

func (l OptLevel) String() string {
	if l < MCN0 || l > MCN5 {
		return fmt.Sprintf("OptLevel(%d)", int(l))
	}
	return fmt.Sprintf("mcn%d", int(l))
}

// Options are the individually toggleable MCN mechanisms; OptLevel.Options
// produces the paper's cumulative sets, and ablation benches flip single
// fields.
type Options struct {
	// DimmInterrupt repurposes DDR4's ALERT_N as an interrupt from the
	// DIMM to the host MC, replacing periodic polling (Sec. IV-B).
	DimmInterrupt bool
	// ChecksumBypass disables checksum generation/verification cost: the
	// memory channel is ECC/CRC protected (Sec. IV-A).
	ChecksumBypass bool
	// MTU of the virtual interfaces (1500 baseline, 9000 for mcn3+).
	MTU int
	// TSO lets the stack hand one large chunk to the MCN driver, which
	// transmits it as a single unsegmented MCN message (Sec. IV-A).
	TSO bool
	// DMA offloads SRAM<->memory copies to per-channel/per-DIMM MCN-DMA
	// engines (Sec. IV-B).
	DMA bool
	// PollInterval is the HR-timer period of the host polling agent when
	// DimmInterrupt is off.
	PollInterval sim.Duration
	// UncachedCopies disables the write-combining TX mapping and the
	// cacheable RX mapping, degrading every SRAM access to 8-byte
	// uncached transactions — the naive ioremap behavior Sec. III-B's
	// memory mapping unit exists to avoid. For ablations only.
	UncachedCopies bool
}

// DefaultPollInterval is the host polling agent's HR-timer period.
const DefaultPollInterval = 5 * sim.Microsecond

// DefaultWatchdogInterval is the recovery HR-timer period: with
// DimmInterrupt on, the host watchdog probes DIMM liveness and re-kicks
// rings whose ALERT_N edge was lost; the MCN-side driver runs a matching
// rx-ring watchdog. Coarse on purpose — it is a safety net, not the data
// path.
const DefaultWatchdogInterval = 50 * sim.Microsecond

// Options expands the level into its mechanism set per Table I.
func (l OptLevel) Options() Options {
	o := Options{MTU: 1500, PollInterval: DefaultPollInterval}
	if l >= MCN1 {
		o.DimmInterrupt = true
	}
	if l >= MCN2 {
		o.ChecksumBypass = true
	}
	if l >= MCN3 {
		o.MTU = 9000
	}
	if l >= MCN4 {
		o.TSO = true
	}
	if l >= MCN5 {
		o.DMA = true
	}
	return o
}

// Levels lists all optimization levels in order.
func Levels() []OptLevel {
	return []OptLevel{MCN0, MCN1, MCN2, MCN3, MCN4, MCN5}
}

// DriverCosts collects the MCN drivers' fixed CPU costs (cycles).
type DriverCosts struct {
	TxSetupCycles           int64 // driver entry + ring pointer handling (T1-T3)
	RxPerMsgCycles          int64 // sk_buff alloc + hand to stack per message
	PollCheckCycles         int64 // reading one DIMM's tx-poll flag
	FenceCycles             int64 // memory fences around control-bit updates
	ForwardCycles           int64 // forwarding-engine MAC inspection per packet
	DMASetupCycles          int64 // programming one MCN-DMA descriptor
	InvalidateCyclesPerLine int64 // cacheline invalidate on the RX window
}

// DefaultDriverCosts returns the calibrated cost table.
func DefaultDriverCosts() DriverCosts {
	return DriverCosts{
		TxSetupCycles:           350,
		RxPerMsgCycles:          600,
		PollCheckCycles:         120,
		FenceCycles:             60,
		ForwardCycles:           250,
		DMASetupCycles:          450,
		InvalidateCyclesPerLine: 12,
	}
}
