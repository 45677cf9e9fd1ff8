// The client's operator methods (the serving tier encodes its operator
// requests itself) and the host-side twin of each. The twins fetch raw
// values over the channel and compute the identical result host-side
// through the same nmop functions, charging the host's per-row evaluation
// cost in simulated time; the tests diff-verify the two execution paths
// byte for byte.
package kvstore

import (
	"bytes"
	"fmt"

	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/sim"
)

// MultiGet fetches several keys in one request; per-key found flags and
// values come back in request order.
func (c *Client) MultiGet(p *sim.Proc, keys []string) (*nmop.MultiGetResult, error) {
	payload, st, err := c.do(p, OpMultiGet, "", nmop.AppendMultiGetPayload(nil, keys))
	if err != nil {
		return nil, err
	}
	res, ok := nmop.ParseMultiGetResult(payload)
	if !ok {
		return nil, fmt.Errorf("kvstore: malformed multi-get response (status %d)", st)
	}
	return res, nil
}

// FilterAgg runs one filter+aggregate page on the DIMM: rows in
// [start, end) are scanned next to the memory, and only the aggregate
// (plus the matches, when returnMatches) crosses the channel.
func (c *Client) FilterAgg(p *sim.Proc, start, end string, maxRows uint32, pred nmop.Pred, returnMatches bool) (*nmop.FilterResult, error) {
	payload, st, err := c.do(p, OpFilter, start, nmop.AppendFilterPayload(nil, end, maxRows, nmop.AppendPred(nil, pred), returnMatches))
	if err != nil {
		return nil, err
	}
	res, ok := nmop.ParseFilterResult(payload)
	if !ok {
		return nil, fmt.Errorf("kvstore: malformed filter response (status %d)", st)
	}
	return res, nil
}

// CAS atomically replaces key's value with new iff it currently equals
// old. swapped=false with found=true reports a compare failure, cur
// holding the current value.
func (c *Client) CAS(p *sim.Proc, key string, old, new []byte) (swapped, found bool, cur []byte, err error) {
	payload, st, err := c.do(p, OpCAS, key, nmop.AppendCASPayload(nil, old, new))
	if err != nil {
		return false, false, nil, err
	}
	switch st {
	case StatusOK:
		return true, true, nil, nil
	case StatusConflict:
		return false, true, payload, nil
	default: // StatusMiss
		return false, false, nil, nil
	}
}

// FetchAdd atomically adds delta to key's counter field and returns the
// new counter; found=false reports a missing key.
func (c *Client) FetchAdd(p *sim.Proc, key string, delta uint64) (newVal uint64, found bool, err error) {
	payload, st, err := c.do(p, OpFetchAdd, key, nmop.AppendFetchAddPayload(nil, delta))
	if err != nil {
		return 0, false, err
	}
	if st != StatusOK {
		return 0, false, nil
	}
	if len(payload) != 8 {
		return 0, false, fmt.Errorf("kvstore: malformed fetch-add response (%d bytes)", len(payload))
	}
	return nmop.ValueCounter(payload), true, nil
}

// MultiGetHost is the host-side multi-GET: one GET round trip per key.
func (c *Client) MultiGetHost(p *sim.Proc, keys []string) (*nmop.MultiGetResult, error) {
	res := &nmop.MultiGetResult{Found: make([]bool, len(keys)), Vals: make([][]byte, len(keys))}
	for i, k := range keys {
		v, ok, err := c.Get(p, k)
		if err != nil {
			return nil, err
		}
		res.Found[i] = ok
		if ok {
			res.Vals[i] = v
		}
	}
	p.Sleep(sim.Duration(len(keys)) * HostRowEvalNs * sim.Nanosecond)
	return res, nil
}

// FilterAggHost is the host-side filter+aggregate: fetch every raw row
// in the page over the channel (paged scans), then run the identical
// filter loop (nmop.RunFilter) on the host. The result — aggregate,
// matches, pagination — is byte-identical to FilterAgg's.
func (c *Client) FilterAggHost(p *sim.Proc, start, end string, maxRows uint32, pred nmop.Pred, returnMatches bool) (*nmop.FilterResult, error) {
	req := &nmop.Req{Kind: nmop.KindFilter, Start: start, End: end, MaxRows: maxRows,
		MaxBytes: nmop.DefaultScanRespBytes, Pred: pred, ReturnMatches: returnMatches}
	var rows []nmop.Record
	more, next := false, ""
	for uint32(len(rows)) < maxRows {
		sr, err := c.Scan(p, start, end, maxRows-uint32(len(rows)), 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, sr.Recs...)
		more, next = sr.More, sr.Next
		if !sr.More {
			break
		}
		start = sr.Next
	}
	res, consumed := nmop.RunFilter(req, rows)
	if consumed < len(rows) {
		res.More, res.Next = true, rows[consumed].Key
	} else {
		res.More, res.Next = more, next
	}
	p.Sleep(sim.Duration(consumed) * HostRowEvalNs * sim.Nanosecond)
	return res, nil
}

// CASHost is the host-side CAS: GET, compare on the host, SET on match.
// It is atomic only as far as the connection's FIFO pipeline — the
// on-DIMM CAS exists precisely to close that gap — but over a single
// deterministic stream the results match.
func (c *Client) CASHost(p *sim.Proc, key string, old, new []byte) (swapped, found bool, cur []byte, err error) {
	v, ok, err := c.Get(p, key)
	if err != nil {
		return false, false, nil, err
	}
	if !ok {
		return false, false, nil, nil
	}
	if !bytes.Equal(v, old) {
		return false, true, v, nil
	}
	if err := c.Set(p, key, new); err != nil {
		return false, true, nil, err
	}
	return true, true, nil, nil
}

// FetchAddHost is the host-side fetch-and-add: GET, add on the host, SET.
func (c *Client) FetchAddHost(p *sim.Proc, key string, delta uint64) (newVal uint64, found bool, err error) {
	v, ok, err := c.Get(p, key)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	nv := nmop.ValueCounter(v) + delta
	stored := append([]byte(nil), v...)
	nmop.PutValueCounter(stored, nv)
	if err := c.Set(p, key, stored); err != nil {
		return 0, true, err
	}
	return nv, true, nil
}

// Scan fetches one page of rows in [start, end) in lexical key order.
func (c *Client) Scan(p *sim.Proc, start, end string, maxRows, maxBytes uint32) (*nmop.ScanResult, error) {
	payload, st, err := c.do(p, OpScan, start, nmop.AppendScanPayload(nil, end, maxRows, maxBytes))
	if err != nil {
		return nil, err
	}
	res, ok := nmop.ParseScanResult(payload)
	if !ok {
		return nil, fmt.Errorf("kvstore: malformed scan response (status %d)", st)
	}
	return res, nil
}
