// The near-memory operator experiment: the serving workload with the
// nmop operator families mixed in, swept across filter selectivities
// with the execution path forced host-side, forced on-DIMM, and left to
// the calibrated cost model — the bytes-over-channel figure of the
// offload argument (the NMP analogue of the paper's bandwidth case).
package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/serve"
)

// DefaultServeOps is the operator mix a "+ops" topology suffix enables:
// the default family fractions (serve.OpsConfig defaults), matched rows
// shipped back from filters, auto offload decisions under the static
// cost prior. The sweep below overrides selectivity and mode per point.
var DefaultServeOps = serve.OpsConfig{On: true, ReturnMatches: true}

// DefaultServeOpsSelectivities is the filter-selectivity sweep of the
// serve-ops experiment: the two ends where the decision is clear-cut
// (1% offloads, 90% stays host-side) plus the 10% acceptance point and
// the 50% midpoint near the crossover.
var DefaultServeOpsSelectivities = []float64{0.01, 0.10, 0.50, 0.90}

// ServeOpsTopo/ServeOpsRate: the operator sweep runs on the batched
// mcn5 fabric at the attribution load — well under the knee, so byte
// volumes and tails reflect the path costs, not queueing collapse.
var ServeOpsTopo = Topo{Fabric: "mcn5", Batch: true}

const ServeOpsRate = 200e3

// ServeOpsModeRow is one (selectivity, mode) cell of the sweep.
type ServeOpsModeRow struct {
	Mode nmop.Mode
	// Filter-family decision tallies and channel bytes — the headline
	// numbers the selectivity sweeps.
	FilterIssued    int64
	FilterOffloaded int64
	FilterHost      int64
	FilterBytes     int64
	FilterP99       float64 // logical filter latency p99 (ns)
	// Whole-run aggregates.
	OpsBytes   int64 // all operator families' channel payload bytes
	WireReqs   int64 // wire requests the operators expanded into
	P99        float64
	Errors     int64
	Unfinished int64
}

// ServeOpsRow is one selectivity's host/dimm/auto triple.
type ServeOpsRow struct {
	Selectivity      float64
	Host, Dimm, Auto ServeOpsModeRow
}

// HostOverDimmBytes is the filter byte ratio of the forced paths — the
// acceptance figure (>= 5x at 10% selectivity).
func (r ServeOpsRow) HostOverDimmBytes() float64 {
	if r.Dimm.FilterBytes == 0 {
		return 0
	}
	return float64(r.Host.FilterBytes) / float64(r.Dimm.FilterBytes)
}

// ServeOpsResult is the full sweep plus the calibration that preceded it.
type ServeOpsResult struct {
	Seed uint64
	Topo string
	Rate float64
	// RawNsPerByte is the attribution-derived transport cost (mean
	// HostStack+Wire+ChannelWait+ReturnPath ns over the round-trip wire
	// bytes of one request); ChannelNsPerByte is the same after the cost
	// model's trust clamp — the value the auto rows decided with.
	RawNsPerByte     float64
	ChannelNsPerByte float64
	Rows             []ServeOpsRow
}

// CalibrateServeOps derives the offload cost model from live phase
// attribution: one fully-traced run of the plain serving workload on the
// sweep's fabric, whose byte-proportional transport phases (HostStack,
// Wire, ChannelWait, ReturnPath) price what moving a payload byte
// host-side actually costs on this build's stack. The raw figure is
// clamped to the model's trusted band (tiny requests are dominated by
// fixed per-request overheads, which WireReqNs prices separately).
func CalibrateServeOps(seed uint64) (model nmop.CostModel, rawNsPerByte float64) {
	tr := ServeTraced(seed, ServeOpsTopo, ServeAttribRate, 0, 1)
	var transportNs float64
	for _, ph := range []obs.Phase{obs.PhaseHostStack, obs.PhaseWire, obs.PhaseChannelWait, obs.PhaseReturnPath} {
		transportNs += tr.Tracer.Phases[ph].Mean()
	}
	// Round-trip wire bytes of one plain request. GETs and SETs move the
	// same total (the value crosses once, in one direction or the other),
	// so the mix doesn't matter.
	w := serveWorkload
	rtBytes := float64(kvstore.ReqHeaderBytes + kvstore.RespHeaderBytes + len(w.Key(0)) + w.ValueBytes)
	rawNsPerByte = transportNs / rtBytes
	model = nmop.DefaultCostModel()
	model.Calibrate(rawNsPerByte)
	return model, rawNsPerByte
}

// ServeOps runs the near-memory operator experiment: calibrate the cost
// model from live attribution, then sweep filter selectivity with the
// execution path forced host-side, forced on-DIMM, and decided by the
// calibrated model. Every stream derives from the seed, so each cell
// replays bit-identically.
func ServeOps(seed uint64) *ServeOpsResult {
	return ServeOpsAt(seed, DefaultServeOpsSelectivities)
}

// ServeOpsAt is ServeOps over an explicit selectivity ladder.
func ServeOpsAt(seed uint64, selectivities []float64) *ServeOpsResult {
	model, raw := CalibrateServeOps(seed)
	res := &ServeOpsResult{
		Seed: seed, Topo: ServeOpsTopo.String(), Rate: ServeOpsRate,
		RawNsPerByte: raw, ChannelNsPerByte: model.ChannelNsPerByte,
	}
	for _, sel := range selectivities {
		row := ServeOpsRow{Selectivity: sel}
		for _, v := range []struct {
			mode nmop.Mode
			cell *ServeOpsModeRow
		}{
			{nmop.ModeHost, &row.Host},
			{nmop.ModeDimm, &row.Dimm},
			{nmop.ModeAuto, &row.Auto},
		} {
			r := runServe(seed, ServeOpsTopo, ServeOpsRate, func(c *serve.Config) {
				c.Ops = DefaultServeOps
				c.Ops.Selectivity = sel
				c.Ops.Mode = v.mode
				c.Ops.Model = &model
			})
			*v.cell = serveOpsCell(v.mode, r)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// serveOpsCell reduces one run to its sweep cell.
func serveOpsCell(mode nmop.Mode, r *serve.Result) ServeOpsModeRow {
	ops := r.Ops
	return ServeOpsModeRow{
		Mode:            mode,
		FilterIssued:    ops.Filter.Issued,
		FilterOffloaded: ops.Filter.Offloaded,
		FilterHost:      ops.Filter.Host,
		FilterBytes:     ops.Filter.Bytes(),
		FilterP99:       r.OpsFilterLat.Quantile(0.99),
		OpsBytes:        ops.Bytes(),
		WireReqs:        ops.MultiGet.WireReqs + ops.Scan.WireReqs + ops.Filter.WireReqs + ops.RMW.WireReqs,
		P99:             r.Summary().P99,
		Errors:          r.Errors,
		Unfinished:      r.Unfinished,
	}
}

// String renders the sweep: one block per selectivity with the forced
// paths' byte volumes and tails, the byte-ratio headline, and what the
// calibrated auto mode picked.
func (r *ServeOpsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "near-memory operators: host vs on-DIMM vs auto (%s, seed %d, %.0f req/s)\n",
		r.Topo, r.Seed, r.Rate)
	fmt.Fprintf(&b, "calibrated channel cost: %.3f ns/B (raw attribution %.3f ns/B)\n",
		r.ChannelNsPerByte, r.RawNsPerByte)
	fmt.Fprintf(&b, "%5s %5s %12s %12s %12s %10s %8s %8s\n",
		"sel%", "mode", "filterB", "opsB", "wirereqs", "filp99us", "p99us", "ok")
	for _, row := range r.Rows {
		for _, c := range []ServeOpsModeRow{row.Host, row.Dimm, row.Auto} {
			ok := "yes"
			if c.Errors != 0 || c.Unfinished != 0 {
				ok = fmt.Sprintf("e%d/u%d", c.Errors, c.Unfinished)
			}
			fmt.Fprintf(&b, "%5.0f %5s %12d %12d %12d %10.1f %8.1f %8s\n",
				row.Selectivity*100, c.Mode, c.FilterBytes, c.OpsBytes, c.WireReqs,
				c.FilterP99/1e3, c.P99/1e3, ok)
		}
		fmt.Fprintf(&b, "      host/dimm filter bytes = %.1fx | auto offloaded %d/%d filters\n",
			row.HostOverDimmBytes(), row.Auto.FilterOffloaded, row.Auto.FilterIssued)
	}
	return b.String()
}

// Check audits the sweep against the claims the experiment exists to
// make; the returned strings are human-readable violations (empty =
// pass). The bench-smoke gate runs this on the two-point smoke sweep.
func (r *ServeOpsResult) Check() []string {
	var bad []string
	if len(r.Rows) == 0 {
		return []string{"no selectivity rows"}
	}
	for _, row := range r.Rows {
		for _, c := range []ServeOpsModeRow{row.Host, row.Dimm, row.Auto} {
			if c.Errors != 0 || c.Unfinished != 0 {
				bad = append(bad, fmt.Sprintf("sel=%.2f mode=%s: errors=%d unfinished=%d",
					row.Selectivity, c.Mode, c.Errors, c.Unfinished))
			}
		}
		if row.Host.FilterIssued == 0 || row.Host.FilterIssued != row.Dimm.FilterIssued {
			bad = append(bad, fmt.Sprintf("sel=%.2f: forced modes drew different filter streams (host=%d dimm=%d)",
				row.Selectivity, row.Host.FilterIssued, row.Dimm.FilterIssued))
		}
		// The acceptance figure: at <=10% selectivity the on-DIMM filter
		// moves at least 5x fewer bytes than the host fallback.
		if row.Selectivity <= 0.10 {
			if ratio := row.HostOverDimmBytes(); ratio < 5 {
				bad = append(bad, fmt.Sprintf("sel=%.2f: host/dimm filter bytes %.1fx < 5x", row.Selectivity, ratio))
			}
		}
	}
	// Auto must pick the cheap path at both ends of the sweep.
	lo, hi := r.Rows[0], r.Rows[len(r.Rows)-1]
	if f := lo.Auto; f.FilterOffloaded != f.FilterIssued || f.FilterHost != 0 {
		bad = append(bad, fmt.Sprintf("sel=%.2f: auto offloaded %d/%d filters, want all",
			lo.Selectivity, f.FilterOffloaded, f.FilterIssued))
	}
	if f := hi.Auto; f.FilterHost != f.FilterIssued || f.FilterOffloaded != 0 {
		bad = append(bad, fmt.Sprintf("sel=%.2f: auto kept %d/%d filters host-side, want all",
			hi.Selectivity, f.FilterHost, f.FilterIssued))
	}
	if lo.Auto.FilterBytes != lo.Dimm.FilterBytes {
		bad = append(bad, fmt.Sprintf("sel=%.2f: auto filter bytes %d != forced dimm %d",
			lo.Selectivity, lo.Auto.FilterBytes, lo.Dimm.FilterBytes))
	}
	return bad
}

// ServeOpsSmoke is the bench-smoke variant: just the sweep's two ends
// (the acceptance point and the host-side end), enough for Check to
// audit the byte-savings and decision claims cheaply.
func ServeOpsSmoke(seed uint64) *ServeOpsResult {
	return ServeOpsAt(seed, []float64{0.10, 0.90})
}
