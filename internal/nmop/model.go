// The offload decision layer: an NMPO-style cost model that compares the
// channel cost of the bytes an operator would move host-side against the
// extra compute cost of running it on the (slower) DIMM cores, calibrated
// from live obs phase attribution.
package nmop

import "fmt"

// Mode forces or frees the offload decision.
type Mode uint8

const (
	// ModeAuto lets the cost model pick per operator.
	ModeAuto Mode = iota
	// ModeHost forces host-side execution (fetch raw values, compute on
	// the host) — the diff-verification baseline.
	ModeHost
	// ModeDimm forces on-DIMM execution.
	ModeDimm
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeHost:
		return "host"
	case ModeDimm:
		return "dimm"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// CostModel prices the two execution paths. The structural decision rule
// (the NMPO shape): offload when
//
//	bytes-moved-saved x ChannelNsPerByte + wire-requests-saved x WireReqNs
//	  > (DimmNsPerRow - HostNsPerRow) x rows
//
// i.e. when the channel (and per-request host stack) time the offload
// avoids exceeds the penalty of computing each row on the wimpier DIMM
// core instead of the host.
type CostModel struct {
	// ChannelNsPerByte is the marginal channel cost of moving one payload
	// byte host-side — the knob live attribution calibrates (Calibrate):
	// measured channel+stack nanoseconds per payload byte.
	ChannelNsPerByte float64
	// DimmNsPerRow and HostNsPerRow price evaluating one row (predicate
	// plus aggregate fold) on each side; the DIMM's in-order core is
	// several times slower per row but sits next to the data.
	DimmNsPerRow float64
	HostNsPerRow float64
	// WireReqNs is the fixed host-side cost of one wire request
	// (stack traversal, framing, completion) — what collapsing K GETs
	// into one multi-GET saves.
	WireReqNs float64
}

// Calibration clamp: attribution-derived channel cost is trusted only
// within this band (ns/byte). Outside it the measurement is dominated by
// fixed overheads (tiny payloads) or queueing (saturation), not the
// marginal byte.
const (
	minChannelNsPerByte = 0.05
	maxChannelNsPerByte = 0.25
)

// DefaultCostModel returns the static prior: channel ~10Gb/s-class
// effective payload cost (0.1 ns/B), DIMM rows 6x a 1 ns host row, 50 ns
// per wire request. With 128 B values this puts the filter crossover
// near 64% selectivity — low-selectivity filters offload, high ones
// stay host-side.
func DefaultCostModel() CostModel {
	return CostModel{ChannelNsPerByte: 0.1, DimmNsPerRow: 6, HostNsPerRow: 1, WireReqNs: 50}
}

// Calibrate sets the channel cost from a live measurement, clamped to
// the trusted band.
func (m *CostModel) Calibrate(nsPerByte float64) {
	m.ChannelNsPerByte = clampChannel(nsPerByte)
}

func clampChannel(v float64) float64 {
	if v < minChannelNsPerByte {
		return minChannelNsPerByte
	}
	if v > maxChannelNsPerByte {
		return maxChannelNsPerByte
	}
	return v
}

// DecideFilter decides a filter+aggregate over rows rows of rowBytes
// payload each at expected selectivity sel (0..1). Host-side execution
// moves every row over the channel; on-DIMM moves only the matches (or
// just the 41-byte aggregate). True means offload.
func (m CostModel) DecideFilter(mode Mode, rows, rowBytes int, sel float64) bool {
	if mode != ModeAuto {
		return mode == ModeDimm
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	saved := (1 - sel) * float64(rows) * float64(rowBytes) * m.ChannelNsPerByte
	penalty := (m.DimmNsPerRow - m.HostNsPerRow) * float64(rows)
	return saved > penalty
}

// DecideMultiGet decides a K-key multi-GET (keyBytes per key, rowBytes
// per value). The values cross the channel either way; the offload saves
// K-1 wire requests' framing bytes and host per-request cost.
func (m CostModel) DecideMultiGet(mode Mode, keys, keyBytes, rowBytes int) bool {
	if mode != ModeAuto {
		return mode == ModeDimm
	}
	if keys <= 1 {
		return false
	}
	// Per collapsed request: one request frame (header + key) and one
	// response header stop crossing the channel.
	const frameBytes = 12 // kvstore req+resp header bytes
	saved := float64(keys-1) * (float64(frameBytes+keyBytes)*m.ChannelNsPerByte + m.WireReqNs)
	penalty := (m.DimmNsPerRow - m.HostNsPerRow) * float64(keys)
	return saved > penalty
}

// DecideRMW decides a read-modify-write (CAS or fetch-and-add) on a
// rowBytes value. Host-side takes two round trips moving the value both
// ways; on-DIMM takes one request moving almost nothing.
func (m CostModel) DecideRMW(mode Mode, rowBytes int) bool {
	if mode != ModeAuto {
		return mode == ModeDimm
	}
	saved := 2*float64(rowBytes)*m.ChannelNsPerByte + m.WireReqNs
	return saved > m.DimmNsPerRow-m.HostNsPerRow
}
