// Near-memory operator traffic for the serving tier: the workload mix
// gains multi-GET, shard-local range scans, filter+aggregate, and
// read-modify-write families (internal/nmop), each with two execution
// paths — on-DIMM (the operator ships to the store and only results
// cross the memory channel) and the host-side fallback (raw rows cross
// and the host computes). A per-op cost model picks the path in auto
// mode; forced modes drive the A/B comparison exp.ServeOps measures.
//
// The driver models the two paths' traffic exactly (wire requests,
// payload bytes, per-row compute time on the executing side); the
// byte-for-byte result equivalence of the paths is proven by the kvstore
// differential tests (the host-side twins in its oracle_test.go), whose
// wire formats both paths here encode through.
package serve

import (
	"sort"

	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// OpsConfig mixes near-memory operator traffic into the workload. The
// zero value disables it.
type OpsConfig struct {
	// On enables operator traffic. Every stream draw and pipeline hook
	// below is gated on it, so an ops-off run stays byte-identical to one
	// built before the subsystem existed.
	On bool
	// Selectivity is the filter predicate's expected match fraction
	// (default 0.10).
	Selectivity float64
	// ReturnMatches ships the matched rows (not just the aggregate) back
	// from a filter — the analytics-over-cache shape whose byte savings
	// the headline figure sweeps across selectivities.
	ReturnMatches bool
	// Mode forces the execution path (host/dimm) or lets the cost model
	// decide per op (auto).
	Mode nmop.Mode
	// Model, when set, is the (possibly live-calibrated) cost model the
	// auto mode decides with; nil uses nmop.DefaultCostModel().
	Model *nmop.CostModel
}

// The operator mix. The family fractions are of all logical requests;
// the remainder stays the plain GET/SET mix.
const (
	multiGetFrac = 0.05
	scanFrac     = 0.03
	filterFrac   = 0.04
	rmwFrac      = 0.08
	// multiGetKeys is the keys per multi-GET, drawn from the popularity
	// distribution: the on-DIMM path fans one multi-GET out per owning
	// shard, the host path issues one GET per key.
	multiGetKeys = 8
	// scanRows / filterRows bound one scan / filter page.
	scanRows   = 32
	filterRows = 512
)

func (o OpsConfig) withDefaults() OpsConfig {
	if o.On && o.Selectivity == 0 {
		o.Selectivity = 0.10
	}
	return o
}

// model resolves the decision model (copied: forced modes never mutate
// the caller's calibrated model).
func (o OpsConfig) model() nmop.CostModel {
	if o.Model != nil {
		return *o.Model
	}
	return nmop.DefaultCostModel()
}

// opWire maps an operator kind to its kvstore opcode.
func opWire(k nmop.Kind) byte {
	return byte(int(kvstore.OpMultiGet) + int(k) - int(nmop.KindMultiGet))
}

// logicalOp is one operator as the workload sees it: one or more wire
// requests (multi-GET fan-out, host GET trains, host RMW GET→SET chains)
// completing as a unit.
type logicalOp struct {
	fam       nmop.Kind
	offloaded bool
	arrival   sim.Time
	remaining int  // wire parts still outstanding
	errs      int  // parts that failed or were shed
	chain     bool // host RMW: a SET follows the GET part
	chainKey  int
	done      *sim.Signal // closed-loop completion, nil for open loop
	// Accumulated wire traffic, folded into Result.Ops when the last
	// part completes (so an unfinished op never half-counts).
	wire, reqB, respB int64
}

// opsState is the bench's operator plumbing, built only when the config
// enables operator traffic.
type opsState struct {
	cfg   OpsConfig
	model nmop.CostModel
	// shardKeys/shardKeyIdx are each shard's resident keys in lexical
	// order (values and their workload indices) — the client's view of
	// shard-local key order, used to aim scans and to build the host
	// fallback's GET trains. Static: the serving workload never deletes.
	shardKeys   [][]string
	shardKeyIdx [][]int
	// pred is the run's filter predicate, derived from the run seed so
	// replays match; predBytes is its one-time encoding.
	pred      nmop.Pred
	predBytes []byte
}

// initOps builds the operator plumbing once the keyspace is resolved.
func (b *bench) initOps() {
	if !b.cfg.Ops.On {
		return
	}
	o := b.cfg.Ops
	st := &opsState{cfg: o, model: o.model()}
	st.shardKeys = make([][]string, len(b.cfg.Shards))
	st.shardKeyIdx = make([][]int, len(b.cfg.Shards))
	for i, key := range b.keys {
		// b.keys ascends lexically (fixed-width keys), so the per-shard
		// lists arrive sorted.
		si := b.keyShard[i]
		st.shardKeys[si] = append(st.shardKeys[si], key)
		st.shardKeyIdx[si] = append(st.shardKeyIdx[si], i)
	}
	st.pred = nmop.PredForSelectivity(sim.StreamSeed(b.cfg.Seed, "ops/pred"), o.Selectivity)
	st.predBytes = nmop.AppendPred(nil, st.pred)
	b.ops = st
	b.res.OpsOn = true
}

// nextOps draws one logical request with operator families mixed in. It
// is only called when operators are enabled, so the extra family draw
// never perturbs an ops-off stream (the gate the byte-identity test
// pins). RMW ops alternate CAS and fetch-and-add on a counter, not an
// extra draw, mirroring the SyncEvery cadence.
func (g *generator) nextOps() (fam nmop.Kind, op byte, keyIdx int, sync bool) {
	u := g.r.Float64()
	switch {
	case u < multiGetFrac:
		return nmop.KindMultiGet, 0, g.keyIdx(), false
	case u < multiGetFrac+scanFrac:
		return nmop.KindScan, 0, g.keyIdx(), false
	case u < multiGetFrac+scanFrac+filterFrac:
		return nmop.KindFilter, 0, g.keyIdx(), false
	case u < multiGetFrac+scanFrac+filterFrac+rmwFrac:
		g.rmws++
		if g.rmws%2 == 0 {
			return nmop.KindCAS, 0, g.keyIdx(), false
		}
		return nmop.KindFetchAdd, 0, g.keyIdx(), false
	}
	op, keyIdx, sync = g.next()
	return 0, op, keyIdx, sync
}

// opFam maps an operator kind to its Result tally, logical-latency
// histogram and metric name (CAS and fetch-add share the RMW bucket).
func (b *bench) opFam(k nmop.Kind) (*stats.OpTally, *stats.HDR, string) {
	switch k {
	case nmop.KindMultiGet:
		return &b.res.Ops.MultiGet, &b.res.OpsMultiGetLat, "multiget"
	case nmop.KindScan:
		return &b.res.Ops.Scan, &b.res.OpsScanLat, "scan"
	case nmop.KindFilter:
		return &b.res.Ops.Filter, &b.res.OpsFilterLat, "filter"
	default:
		return &b.res.Ops.RMW, &b.res.OpsRMWLat, "rmw"
	}
}

// issueOps enqueues the wire parts of one operator of family fam on key
// (a multi-GET draws its other keys from gen). It returns the completion
// signal the closed-loop driver waits on; nil means nothing reached a
// queue (the whole op was shed) or the run is open-loop.
func (b *bench) issueOps(p *sim.Proc, ci int, gen *generator, smp *obs.Sampler, now sim.Time, fam nmop.Kind, key int, closed bool) *sim.Signal {
	st := b.ops
	o := st.cfg
	lop := &logicalOp{fam: fam, arrival: now}
	if closed {
		lop.done = b.k.NewSignal()
	}
	vb := b.cfg.Workload.ValueBytes
	keyLen := len(b.keys[key])

	var parts []*request
	switch fam {
	case nmop.KindMultiGet:
		idxs := make([]int, multiGetKeys)
		idxs[0] = key
		for i := 1; i < len(idxs); i++ {
			idxs[i] = gen.keyIdx()
		}
		lop.offloaded = st.model.DecideMultiGet(o.Mode, len(idxs), keyLen, vb)
		if lop.offloaded {
			// One multi-GET wire request per owning shard, shards in
			// first-appearance order (deterministic in the draw stream).
			var order []int
			byShard := map[int][]string{}
			for _, ki := range idxs {
				si := b.keyShard[ki]
				if _, seen := byShard[si]; !seen {
					order = append(order, si)
				}
				byShard[si] = append(byShard[si], b.keys[ki])
			}
			for _, si := range order {
				parts = append(parts, &request{
					op: opWire(fam), kind: fam, key: b.firstKeyOn(si, idxs),
					payload: nmop.AppendMultiGetPayload(nil, byShard[si]),
					rows:    len(byShard[si]),
					arrival: now, lop: lop,
				})
			}
		} else {
			for _, ki := range idxs {
				parts = append(parts, &request{op: opGet, key: ki, rows: 1, arrival: now, lop: lop})
			}
		}

	case nmop.KindScan:
		// A scan targets the shard owning its start key and walks that
		// shard's local key order. The host fallback issues the train of
		// GETs the client can derive from its own routing view.
		si := b.keyShard[key]
		pos := sort.SearchStrings(st.shardKeys[si], b.keys[key])
		end := pos + scanRows
		if end > len(st.shardKeys[si]) {
			end = len(st.shardKeys[si])
		}
		lop.offloaded = st.model.DecideMultiGet(o.Mode, end-pos, keyLen, vb)
		if lop.offloaded {
			parts = append(parts, &request{
				op: opWire(fam), kind: fam, key: key,
				payload: nmop.AppendScanPayload(nil, "", uint32(scanRows), 0),
				arrival: now, lop: lop,
			})
		} else {
			for _, ki := range st.shardKeyIdx[si][pos:end] {
				parts = append(parts, &request{op: opGet, key: ki, rows: 1, arrival: now, lop: lop})
			}
		}

	case nmop.KindFilter:
		// The host fallback fetches the page's raw rows with one wire
		// scan and evaluates the predicate client-side: the data movement
		// of a raw fetch, against the on-DIMM path shipping back only the
		// aggregate header plus matches.
		si := b.keyShard[key]
		pos := sort.SearchStrings(st.shardKeys[si], b.keys[key])
		rows := len(st.shardKeys[si]) - pos
		if rows > filterRows {
			rows = filterRows
		}
		lop.offloaded = st.model.DecideFilter(o.Mode, rows, keyLen+vb, o.Selectivity)
		if lop.offloaded {
			parts = append(parts, &request{
				op: opWire(fam), kind: fam, key: key,
				payload: nmop.AppendFilterPayload(nil, "", uint32(filterRows), st.predBytes, o.ReturnMatches),
				arrival: now, lop: lop,
			})
		} else {
			parts = append(parts, &request{
				op: opWire(nmop.KindScan), kind: nmop.KindScan, key: key,
				payload: nmop.AppendScanPayload(nil, "", uint32(filterRows), 0),
				rows:    rows,
				arrival: now, lop: lop,
			})
		}

	case nmop.KindCAS, nmop.KindFetchAdd:
		lop.offloaded = st.model.DecideRMW(o.Mode, vb)
		if lop.offloaded {
			var payload []byte
			if fam == nmop.KindCAS {
				// Expect the canonical value: a CAS that lost a race with
				// an earlier RMW conflicts, which is a valid completion.
				payload = nmop.AppendCASPayload(nil, b.conns[ci][b.keyShard[key]].setVal, b.conns[ci][b.keyShard[key]].setVal)
			} else {
				payload = nmop.AppendFetchAddPayload(nil, 1)
			}
			parts = append(parts, &request{
				op: opWire(fam), kind: fam, key: key, payload: payload,
				rows: 1, arrival: now, lop: lop,
			})
		} else {
			// Host RMW: read the value, then write it back — the second
			// leg chains from the first's completion.
			lop.chain, lop.chainKey = true, key
			parts = append(parts, &request{op: opGet, key: key, rows: 1, arrival: now, lop: lop})
		}
	}

	if smp.Next() {
		span := b.cfg.Tracer.Start(now, ci, parts[0].op)
		span.OpKind = byte(fam)
		span.Offloaded = lop.offloaded
		parts[0].span = span
	}
	if b.measured(now) {
		t, _, _ := b.opFam(fam)
		t.Issued++
		if lop.offloaded {
			t.Offloaded++
		} else {
			t.Host++
		}
	}
	if lop.offloaded {
		b.cfg.Timeline.Count("ops/offloaded", now, 1)
	} else {
		b.cfg.Timeline.Count("ops/host", now, 1)
	}
	lop.remaining = len(parts)
	for _, part := range parts {
		if !b.enqueue(p, ci, part) {
			lop.errs++
			lop.remaining--
			if part.span != nil {
				part.span = nil // enqueue already aborted it
			}
			lop.chain = false
		}
	}
	if lop.remaining == 0 {
		b.opFinish(lop, now)
		return nil
	}
	return lop.done
}

// firstKeyOn returns the first drawn key index owned by shard si.
func (b *bench) firstKeyOn(si int, idxs []int) int {
	for _, ki := range idxs {
		if b.keyShard[ki] == si {
			return ki
		}
	}
	return idxs[0]
}

// opComplete is the per-wire-part bookkeeping hook, called from the
// connection's completion and failure paths for requests belonging to a
// logical op.
func (sc *shardConn) opComplete(p *sim.Proc, req *request, ok bool, now sim.Time, respBytes int) {
	lop := req.lop
	lop.wire++
	lop.reqB += int64(sc.reqBytes(req))
	lop.respB += int64(respBytes)
	if !ok {
		lop.errs++
	}
	if ok && req.rows > 0 && !lop.offloaded {
		// Host fallback compute: the client core walks the fetched rows.
		// Charged on the receive path, so it backpressures later
		// responses on this connection the way a busy host core does.
		p.Sleep(sim.Duration(req.rows*kvstore.HostRowEvalNs) * sim.Nanosecond)
	}
	if ok && lop.chain && req.kind == 0 && req.op == opGet {
		// Host RMW second leg: write the updated value back. The GET's
		// outstanding slot transfers to the SET.
		lop.chain = false
		next := &request{op: opSet, key: lop.chainKey, arrival: now, lop: lop}
		if sc.b.enqueue(p, sc.ci, next) {
			return
		}
		lop.errs++
	}
	lop.remaining--
	if lop.remaining == 0 {
		sc.b.opFinish(lop, now)
	}
}

// opFinish folds a completed logical op into the run tallies and releases
// its closed-loop driver. Wire traffic counts only for in-window ops, in
// full at completion, so replays tally identically.
func (b *bench) opFinish(lop *logicalOp, now sim.Time) {
	if b.measured(lop.arrival) {
		t, lat, _ := b.opFam(lop.fam)
		t.WireReqs += lop.wire
		t.ReqBytes += lop.reqB
		t.RespBytes += lop.respB
		if lop.errs > 0 {
			t.Errors++
		} else {
			lat.RecordDuration(now.Sub(lop.arrival))
		}
	}
	if lop.done != nil {
		lop.done.Notify()
	}
}
