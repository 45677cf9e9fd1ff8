// Near-memory operator execution: the server-side path that runs
// multi-GET / scan / filter+aggregate / CAS / fetch-and-add on the
// DIMM-resident store through the internal/nmop functions.
package kvstore

import (
	"bytes"
	"sort"

	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Per-row evaluation cost of the DIMM's in-order core (predicate check +
// aggregate fold) and of the host CPU doing the same work on fetched raw
// rows. These are the simulated-time counterparts of the cost model's
// DimmNsPerRow / HostNsPerRow priors (nmop.DefaultCostModel).
const (
	DimmRowEvalNs = 6
	HostRowEvalNs = 1
)

// execOp runs one operator request on the store. It returns the response
// payload and status; every malformed payload is a clean per-request
// StatusBadRequest (the body was consumed per the validated header, so
// the connection stays usable).
func (s *Server) execOp(p *sim.Proc, base byte, key string, payload []byte, failover, sync bool) ([]byte, byte) {
	req, err := nmop.ParseOpRequest(nmop.Kind(int(base)-opKindBase), key, payload)
	if err != nil {
		s.BadReqs++
		return nil, StatusBadRequest
	}
	switch req.Kind {
	case nmop.KindMultiGet:
		return s.execMultiGet(p, req), StatusOK
	case nmop.KindScan:
		return s.execScan(p, req), StatusOK
	case nmop.KindFilter:
		return s.execFilter(p, req), StatusOK
	case nmop.KindCAS:
		return s.execCAS(p, req, failover, sync)
	default: // nmop.KindFetchAdd — ParseOpRequest admits nothing else.
		return s.execFetchAdd(p, req, failover, sync)
	}
}

func (s *Server) execMultiGet(p *sim.Proc, req *nmop.Req) []byte {
	s.MultiGets++
	s.OpRows += int64(len(req.Keys))
	res := &nmop.MultiGetResult{Found: make([]bool, len(req.Keys)), Vals: make([][]byte, len(req.Keys))}
	var streamed int64
	for i, k := range req.Keys {
		e, ok := s.data[k]
		if !ok || e.dead {
			continue
		}
		res.Found[i] = true
		res.Vals[i] = e.val
		streamed += int64(len(e.val))
	}
	if streamed > 0 {
		s.ep.Node.MemStream(p, streamed, false)
	}
	p.Sleep(sim.Duration(len(req.Keys)) * DimmRowEvalNs * sim.Nanosecond)
	return nmop.AppendMultiGetResult(nil, res)
}

// gatherRows collects up to maxRows live rows in [start, end) from the
// sorted index and reports whether the range continues past them (and at
// which key). The row values alias the store — callers encode before the
// next apply.
func (s *Server) gatherRows(start, end string, maxRows uint32) (rows []nmop.Record, more bool, next string) {
	i := sort.SearchStrings(s.index, start)
	for ; i < len(s.index); i++ {
		k := s.index[i]
		if end != "" && k >= end {
			return rows, false, ""
		}
		if uint32(len(rows)) >= maxRows {
			return rows, true, k
		}
		rows = append(rows, nmop.Record{Key: k, Val: s.data[k].val})
	}
	return rows, false, ""
}

func (s *Server) execScan(p *sim.Proc, req *nmop.Req) []byte {
	s.Scans++
	rows, more, next := s.gatherRows(req.Start, req.End, req.MaxRows)
	res := &nmop.ScanResult{More: more, Next: next}
	var streamed int64
	var respBytes uint32
	for i, r := range rows {
		rb := uint32(len(r.Key) + len(r.Val))
		// Always ship at least one row so a page makes progress.
		if i > 0 && respBytes+rb > req.MaxBytes {
			res.More, res.Next = true, r.Key
			break
		}
		res.Recs = append(res.Recs, r)
		respBytes += rb
		streamed += int64(len(r.Val))
	}
	s.OpRows += int64(len(res.Recs))
	if streamed > 0 {
		s.ep.Node.MemStream(p, streamed, false)
	}
	p.Sleep(sim.Duration(len(res.Recs)) * DimmRowEvalNs * sim.Nanosecond)
	return nmop.AppendScanResult(nil, res)
}

func (s *Server) execFilter(p *sim.Proc, req *nmop.Req) []byte {
	s.Filters++
	rows, more, next := s.gatherRows(req.Start, req.End, req.MaxRows)
	res, consumed := nmop.RunFilter(req, rows)
	if consumed < len(rows) {
		res.More, res.Next = true, rows[consumed].Key
	} else {
		res.More, res.Next = more, next
	}
	s.OpRows += int64(consumed)
	var streamed int64
	for _, r := range rows[:consumed] {
		streamed += int64(len(r.Val))
	}
	if streamed > 0 {
		// The near-memory win: every row streams DIMM-locally...
		s.ep.Node.MemStream(p, streamed, false)
	}
	// ...and the DIMM core pays the per-row evaluation cost.
	p.Sleep(sim.Duration(consumed) * DimmRowEvalNs * sim.Nanosecond)
	return nmop.AppendFilterResult(nil, res)
}

func (s *Server) execCAS(p *sim.Proc, req *nmop.Req, failover, sync bool) ([]byte, byte) {
	s.CASes++
	cur, ok := s.data[req.Start]
	if !ok || cur.dead {
		s.Misses++
		return nil, StatusMiss
	}
	s.ep.Node.MemStream(p, int64(len(cur.val)), false)
	if !bytes.Equal(cur.val, req.Old) {
		s.Conflicts++
		return cur.val, StatusConflict
	}
	stored := append([]byte(nil), req.New...)
	status := s.mutate(p, req.Start, stored, cur, failover, sync)
	return nil, status
}

func (s *Server) execFetchAdd(p *sim.Proc, req *nmop.Req, failover, sync bool) ([]byte, byte) {
	s.FAdds++
	cur, ok := s.data[req.Start]
	if !ok || cur.dead {
		s.Misses++
		return nil, StatusMiss
	}
	s.ep.Node.MemStream(p, int64(len(cur.val)), false)
	v := nmop.ValueCounter(cur.val) + req.Delta
	stored := append([]byte(nil), cur.val...)
	nmop.PutValueCounter(stored, v)
	status := s.mutate(p, req.Start, stored, cur, failover, sync)
	resp := nmop.AppendFetchAddPayload(nil, v)
	if status != StatusOK {
		return nil, status
	}
	return resp, StatusOK
}

// mutate applies a read-modify-write's store half under the same
// versioning, failover-epoch, and replication-forwarding rules as OpSet.
func (s *Server) mutate(p *sim.Proc, key string, val []byte, cur entry, failover, sync bool) byte {
	ep2, v2 := cur.epoch, cur.ver+1
	if failover {
		s.FailoverSets++
		ep2++
	}
	s.store(key, val, ep2, v2, false)
	s.ep.Node.MemStream(p, int64(len(val)), true)
	if s.fwd != nil && !failover {
		if !s.fwd.Forward(p, ReplRecord{Op: OpSet, Key: key, Val: val, Epoch: ep2, Ver: v2}, sync) {
			return StatusUnavail
		}
	}
	return StatusOK
}
