// Package nmop defines the near-memory operator layer: the wire payloads,
// shared evaluation code, and offload cost model for operators that the
// DIMM-resident kvstore can execute where the data lives (multi-GET, range
// scan, filter+aggregate, CAS, fetch-and-add) instead of shipping raw
// values over the memory channel for host-side compute.
//
// The package is deliberately free of any server or network dependency:
// kvstore imports it for the server-side execution path, serve imports it
// for the host-side fallback, and both compute through the same functions
// (Pred.Match, Agg.Observe, ValueCounter) so the two paths are
// byte-for-byte diffable. The paper's thesis — move compute to the DIMM,
// not bytes to the host — shows up here as the operators whose response is
// much smaller than the data they touch.
package nmop

import (
	"encoding/binary"
	"fmt"
)

// Kind identifies one operator. The values are stable wire constants:
// kvstore maps them onto its opcode space (OpMultiGet..OpFetchAdd) by
// adding a fixed base, and obs tags spans with them.
type Kind uint8

const (
	KindMultiGet Kind = iota + 1
	KindScan
	KindFilter
	KindCAS
	KindFetchAdd
)

func (k Kind) String() string {
	switch k {
	case KindMultiGet:
		return "multiget"
	case KindScan:
		return "scan"
	case KindFilter:
		return "filter"
	case KindCAS:
		return "cas"
	case KindFetchAdd:
		return "fetchadd"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Operator size limits, enforced server-side (and preflighted by the
// encoders): a multi-GET names at most MaxMultiGetKeys keys, a scan or
// filter touches at most MaxScanRows rows per page, and a predicate blob
// larger than MaxPredBytes is rejected as malformed (the oversized-
// predicate case) before any length-prefixed copy.
const (
	MaxMultiGetKeys = 1024
	MaxScanRows     = 4096
	MaxPredBytes    = 64
	// PredBytes is the size of the one predicate encoding this package
	// defines: [8B seed][4B mod][4B thresh], little-endian.
	PredBytes = 16
	// DefaultScanRespBytes bounds one scan/filter response page when the
	// request does not set its own byte budget.
	DefaultScanRespBytes = 256 << 10
)

// Malformed-request errors. kvstore maps any of them to its
// StatusBadRequest — a clean per-request rejection that keeps the
// connection usable (unlike StatusTooLarge, the body length was already
// validated before the payload parse runs).
var (
	ErrBadKind     = fmt.Errorf("nmop: unknown operator kind")
	ErrMalformed   = fmt.Errorf("nmop: malformed operator payload")
	ErrZeroKeys    = fmt.Errorf("nmop: multi-get names zero keys")
	ErrTooManyKeys = fmt.Errorf("nmop: multi-get names too many keys")
	ErrBadRange    = fmt.Errorf("nmop: inverted or empty scan range")
	ErrPredTooBig  = fmt.Errorf("nmop: oversized predicate")
	ErrBadPred     = fmt.Errorf("nmop: malformed predicate")
)

// Pred is the selectivity predicate: a key matches when a seeded hash of
// the key, reduced mod Mod, lands under Thresh — so Thresh/Mod is the
// exact expected selectivity, stable across hosts and independent of the
// stored values. Both the on-DIMM filter and the host fallback call
// Match, so the row sets are identical by construction.
type Pred struct {
	Seed   uint64
	Mod    uint32
	Thresh uint32
}

// predSelDenom is the Mod used by PredForSelectivity: parts-per-million
// resolution.
const predSelDenom = 1 << 20

// PredForSelectivity builds a predicate matching approximately frac of
// all keys (clamped to [0, 1]).
func PredForSelectivity(seed uint64, frac float64) Pred {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return Pred{Seed: seed, Mod: predSelDenom, Thresh: uint32(frac*predSelDenom + 0.5)}
}

// Match reports whether the predicate selects key.
func (pr Pred) Match(key string) bool {
	if pr.Mod == 0 {
		return false
	}
	return uint32(predHash(pr.Seed, key)%uint64(pr.Mod)) < pr.Thresh
}

// predHash is seeded FNV-1a over the key bytes — cheap, deterministic,
// and uncorrelated with the workload's Zipf scramble.
func predHash(seed uint64, key string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// AppendPred appends the 16-byte predicate encoding.
func AppendPred(buf []byte, pr Pred) []byte {
	var b [PredBytes]byte
	binary.LittleEndian.PutUint64(b[0:8], pr.Seed)
	binary.LittleEndian.PutUint32(b[8:12], pr.Mod)
	binary.LittleEndian.PutUint32(b[12:16], pr.Thresh)
	return append(buf, b[:]...)
}

// ParsePred decodes a 16-byte predicate; ok is false on short input.
func ParsePred(b []byte) (Pred, bool) {
	if len(b) < PredBytes {
		return Pred{}, false
	}
	return Pred{
		Seed:   binary.LittleEndian.Uint64(b[0:8]),
		Mod:    binary.LittleEndian.Uint32(b[8:12]),
		Thresh: binary.LittleEndian.Uint32(b[12:16]),
	}, true
}

// Req is one parsed operator request. Kind selects which fields are
// meaningful.
type Req struct {
	Kind Kind

	// Multi-GET.
	Keys []string

	// Scan / filter: rows in [Start, End) in lexical key order (End ""
	// means unbounded), at most MaxRows rows and MaxBytes response
	// payload bytes per page.
	Start, End string
	MaxRows    uint32
	MaxBytes   uint32

	// Filter.
	Pred          Pred
	ReturnMatches bool

	// CAS.
	Old, New []byte

	// Fetch-and-add.
	Delta uint64
}

// AppendMultiGetPayload encodes a multi-GET payload:
// [2B count] then count x ([2B keyLen][key]). The primary key field of
// the carrying kvstore request is unused (empty).
func AppendMultiGetPayload(buf []byte, keys []string) []byte {
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(keys)))
	buf = append(buf, n[:]...)
	for _, k := range keys {
		binary.LittleEndian.PutUint16(n[:], uint16(len(k)))
		buf = append(buf, n[:]...)
		buf = append(buf, k...)
	}
	return buf
}

// AppendScanPayload encodes a scan payload:
// [2B endLen][end][4B maxRows][4B maxBytes]. The scan's start key rides
// in the carrying request's key field.
func AppendScanPayload(buf []byte, end string, maxRows, maxBytes uint32) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(end)))
	buf = append(buf, b[:]...)
	buf = append(buf, end...)
	var w [8]byte
	binary.LittleEndian.PutUint32(w[0:4], maxRows)
	binary.LittleEndian.PutUint32(w[4:8], maxBytes)
	return append(buf, w[:]...)
}

// AppendFilterPayload encodes a filter+aggregate payload:
// [2B endLen][end][4B maxRows][2B predLen][pred][1B returnMatches].
// pred is the encoded predicate (AppendPred) — taken as raw bytes so
// tests can construct the oversized/misshapen predicate cases.
func AppendFilterPayload(buf []byte, end string, maxRows uint32, pred []byte, returnMatches bool) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(end)))
	buf = append(buf, b[:]...)
	buf = append(buf, end...)
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], maxRows)
	buf = append(buf, w[:]...)
	binary.LittleEndian.PutUint16(b[:], uint16(len(pred)))
	buf = append(buf, b[:]...)
	buf = append(buf, pred...)
	rm := byte(0)
	if returnMatches {
		rm = 1
	}
	return append(buf, rm)
}

// AppendCASPayload encodes a compare-and-swap payload:
// [4B oldLen][old][4B newLen][new]. The key rides in the carrying
// request's key field.
func AppendCASPayload(buf []byte, old, new []byte) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(old)))
	buf = append(buf, b[:]...)
	buf = append(buf, old...)
	binary.LittleEndian.PutUint32(b[:], uint32(len(new)))
	buf = append(buf, b[:]...)
	return append(buf, new...)
}

// AppendFetchAddPayload encodes a fetch-and-add payload: [8B delta].
func AppendFetchAddPayload(buf []byte, delta uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], delta)
	return append(buf, b[:]...)
}

// ParseOpRequest validates and decodes one operator request from its
// carrying kvstore frame: kind (the opcode with the base stripped), the
// request's key field, and its value field as the operator payload. Every
// malformed shape returns a distinct sentinel error so the server can
// reject it per-request without tearing the connection down.
func ParseOpRequest(kind Kind, key string, payload []byte) (*Req, error) {
	r := &Req{Kind: kind}
	switch kind {
	case KindMultiGet:
		if len(payload) < 2 {
			return nil, ErrMalformed
		}
		count := int(binary.LittleEndian.Uint16(payload[0:2]))
		if count == 0 {
			return nil, ErrZeroKeys
		}
		if count > MaxMultiGetKeys {
			return nil, ErrTooManyKeys
		}
		p := payload[2:]
		r.Keys = make([]string, 0, count)
		for i := 0; i < count; i++ {
			if len(p) < 2 {
				return nil, ErrMalformed
			}
			kl := int(binary.LittleEndian.Uint16(p[0:2]))
			p = p[2:]
			if len(p) < kl {
				return nil, ErrMalformed
			}
			r.Keys = append(r.Keys, string(p[:kl]))
			p = p[kl:]
		}
		if len(p) != 0 {
			return nil, ErrMalformed
		}
	case KindScan, KindFilter:
		r.Start = key
		if len(payload) < 2 {
			return nil, ErrMalformed
		}
		el := int(binary.LittleEndian.Uint16(payload[0:2]))
		p := payload[2:]
		if len(p) < el {
			return nil, ErrMalformed
		}
		r.End = string(p[:el])
		p = p[el:]
		if r.End != "" && r.End <= r.Start {
			return nil, ErrBadRange
		}
		if len(p) < 4 {
			return nil, ErrMalformed
		}
		r.MaxRows = binary.LittleEndian.Uint32(p[0:4])
		p = p[4:]
		if r.MaxRows == 0 || r.MaxRows > MaxScanRows {
			r.MaxRows = MaxScanRows
		}
		if kind == KindScan {
			if len(p) != 4 {
				return nil, ErrMalformed
			}
			r.MaxBytes = binary.LittleEndian.Uint32(p[0:4])
		} else {
			if len(p) < 2 {
				return nil, ErrMalformed
			}
			pl := int(binary.LittleEndian.Uint16(p[0:2]))
			p = p[2:]
			if pl > MaxPredBytes {
				return nil, ErrPredTooBig
			}
			if pl != PredBytes || len(p) < pl {
				return nil, ErrBadPred
			}
			pr, _ := ParsePred(p[:pl])
			p = p[pl:]
			if pr.Mod == 0 || pr.Thresh > pr.Mod {
				return nil, ErrBadPred
			}
			r.Pred = pr
			if len(p) != 1 {
				return nil, ErrMalformed
			}
			r.ReturnMatches = p[0] != 0
		}
		if r.MaxBytes == 0 || r.MaxBytes > DefaultScanRespBytes {
			r.MaxBytes = DefaultScanRespBytes
		}
	case KindCAS:
		r.Start = key
		if len(payload) < 4 {
			return nil, ErrMalformed
		}
		ol := int(binary.LittleEndian.Uint32(payload[0:4]))
		p := payload[4:]
		if ol > len(p) {
			return nil, ErrMalformed
		}
		r.Old = p[:ol]
		p = p[ol:]
		if len(p) < 4 {
			return nil, ErrMalformed
		}
		nl := int(binary.LittleEndian.Uint32(p[0:4]))
		p = p[4:]
		if nl != len(p) {
			return nil, ErrMalformed
		}
		r.New = p
	case KindFetchAdd:
		r.Start = key
		if len(payload) != 8 {
			return nil, ErrMalformed
		}
		r.Delta = binary.LittleEndian.Uint64(payload)
	default:
		return nil, ErrBadKind
	}
	return r, nil
}

// Record is one key/value row in a scan or filter response.
type Record struct {
	Key string
	Val []byte
}

// AppendRecords appends a record section: [2B count] then count x
// ([2B keyLen][key][4B valLen][val]).
func AppendRecords(buf []byte, recs []Record) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(recs)))
	buf = append(buf, b[:]...)
	for _, r := range recs {
		binary.LittleEndian.PutUint16(b[:], uint16(len(r.Key)))
		buf = append(buf, b[:]...)
		buf = append(buf, r.Key...)
		var v [4]byte
		binary.LittleEndian.PutUint32(v[:], uint32(len(r.Val)))
		buf = append(buf, v[:]...)
		buf = append(buf, r.Val...)
	}
	return buf
}

// ParseRecords decodes a record section and returns the remaining bytes.
func ParseRecords(payload []byte) (recs []Record, rest []byte, ok bool) {
	if len(payload) < 2 {
		return nil, nil, false
	}
	count := int(binary.LittleEndian.Uint16(payload[0:2]))
	p := payload[2:]
	recs = make([]Record, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 2 {
			return nil, nil, false
		}
		kl := int(binary.LittleEndian.Uint16(p[0:2]))
		p = p[2:]
		if len(p) < kl+4 {
			return nil, nil, false
		}
		key := string(p[:kl])
		vl := int(binary.LittleEndian.Uint32(p[kl : kl+4]))
		p = p[kl+4:]
		if len(p) < vl {
			return nil, nil, false
		}
		recs = append(recs, Record{Key: key, Val: append([]byte(nil), p[:vl]...)})
		p = p[vl:]
	}
	return recs, p, true
}

// MultiGetResult is a decoded multi-GET response: per requested key (in
// request order), whether it was found and its value.
type MultiGetResult struct {
	Found []bool
	Vals  [][]byte
}

// AppendMultiGetResult encodes a multi-GET response payload:
// [2B count] then count x ([1B found][4B valLen][val]).
func AppendMultiGetResult(buf []byte, res *MultiGetResult) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(res.Found)))
	buf = append(buf, b[:]...)
	for i, f := range res.Found {
		fb := byte(0)
		var val []byte
		if f {
			fb = 1
			val = res.Vals[i]
		}
		buf = append(buf, fb)
		var v [4]byte
		binary.LittleEndian.PutUint32(v[:], uint32(len(val)))
		buf = append(buf, v[:]...)
		buf = append(buf, val...)
	}
	return buf
}

// ParseMultiGetResult decodes a multi-GET response payload.
func ParseMultiGetResult(payload []byte) (*MultiGetResult, bool) {
	if len(payload) < 2 {
		return nil, false
	}
	count := int(binary.LittleEndian.Uint16(payload[0:2]))
	p := payload[2:]
	res := &MultiGetResult{Found: make([]bool, 0, count), Vals: make([][]byte, 0, count)}
	for i := 0; i < count; i++ {
		if len(p) < 5 {
			return nil, false
		}
		f := p[0] != 0
		vl := int(binary.LittleEndian.Uint32(p[1:5]))
		p = p[5:]
		if len(p) < vl {
			return nil, false
		}
		var val []byte
		if f {
			val = append([]byte(nil), p[:vl]...)
		}
		res.Found = append(res.Found, f)
		res.Vals = append(res.Vals, val)
		p = p[vl:]
	}
	return res, len(p) == 0
}

// ScanResult is a decoded scan response page.
type ScanResult struct {
	More bool
	Next string // resume key when More
	Recs []Record
}

// AppendScanResult encodes a scan response payload:
// [1B more][2B nextLen][next][record section].
func AppendScanResult(buf []byte, res *ScanResult) []byte {
	mb := byte(0)
	if res.More {
		mb = 1
	}
	buf = append(buf, mb)
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(res.Next)))
	buf = append(buf, b[:]...)
	buf = append(buf, res.Next...)
	return AppendRecords(buf, res.Recs)
}

// ParseScanResult decodes a scan response payload.
func ParseScanResult(payload []byte) (*ScanResult, bool) {
	if len(payload) < 3 {
		return nil, false
	}
	res := &ScanResult{More: payload[0] != 0}
	nl := int(binary.LittleEndian.Uint16(payload[1:3]))
	p := payload[3:]
	if len(p) < nl {
		return nil, false
	}
	res.Next = string(p[:nl])
	recs, rest, ok := ParseRecords(p[nl:])
	if !ok || len(rest) != 0 {
		return nil, false
	}
	res.Recs = recs
	return res, true
}

// FilterAggHdrBytes is the fixed aggregate header of a filter response:
// [8B scanned][8B matched][8B sum][8B min][8B max][1B more] — the whole
// answer when the caller wants the aggregate only, independent of how
// many rows were scanned. That 41-byte constant versus
// rows x (key+value) is the offload win the serve-ops figure measures.
const FilterAggHdrBytes = 41

// FilterResult is a decoded filter+aggregate response page.
type FilterResult struct {
	Agg  Agg
	More bool
	Next string   // resume key when More
	Recs []Record // matched rows, present only when the request asked
}

// AppendFilterResult encodes a filter response payload: the 41-byte
// aggregate header, [2B nextLen][next], then the record section (count 0
// unless the request set returnMatches).
func AppendFilterResult(buf []byte, res *FilterResult) []byte {
	var h [FilterAggHdrBytes]byte
	binary.LittleEndian.PutUint64(h[0:8], res.Agg.Scanned)
	binary.LittleEndian.PutUint64(h[8:16], res.Agg.Matched)
	binary.LittleEndian.PutUint64(h[16:24], res.Agg.Sum)
	binary.LittleEndian.PutUint64(h[24:32], res.Agg.Min)
	binary.LittleEndian.PutUint64(h[32:40], res.Agg.Max)
	if res.More {
		h[40] = 1
	}
	buf = append(buf, h[:]...)
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(res.Next)))
	buf = append(buf, b[:]...)
	buf = append(buf, res.Next...)
	return AppendRecords(buf, res.Recs)
}

// ParseFilterResult decodes a filter response payload.
func ParseFilterResult(payload []byte) (*FilterResult, bool) {
	if len(payload) < FilterAggHdrBytes+2 {
		return nil, false
	}
	res := &FilterResult{
		Agg: Agg{
			Scanned: binary.LittleEndian.Uint64(payload[0:8]),
			Matched: binary.LittleEndian.Uint64(payload[8:16]),
			Sum:     binary.LittleEndian.Uint64(payload[16:24]),
			Min:     binary.LittleEndian.Uint64(payload[24:32]),
			Max:     binary.LittleEndian.Uint64(payload[32:40]),
		},
		More: payload[40] != 0,
	}
	nl := int(binary.LittleEndian.Uint16(payload[41:43]))
	p := payload[FilterAggHdrBytes+2:]
	if len(p) < nl {
		return nil, false
	}
	res.Next = string(p[:nl])
	recs, rest, ok := ParseRecords(p[nl:])
	if !ok || len(rest) != 0 {
		return nil, false
	}
	res.Recs = recs
	return res, true
}

// RunFilter executes the filter loop over rows (ascending key order,
// already bounded to the request's range and MaxRows): it folds the
// aggregate, collects matches when the request asks for them, applies
// the response byte budget, and reports how many rows it consumed
// (consumed < len(rows) means the budget stopped the page early — the
// caller resumes at rows[consumed].Key). The on-DIMM executor and the
// host fallback both run this one function over the same rows, which is
// what makes their results byte-identical.
func RunFilter(req *Req, rows []Record) (*FilterResult, int) {
	res := &FilterResult{}
	var recBytes uint32
	consumed := 0
	for _, r := range rows {
		matched := req.Pred.Match(r.Key)
		if matched && req.ReturnMatches {
			rb := uint32(len(r.Key) + len(r.Val))
			// Always ship at least one match so a page makes progress.
			if len(res.Recs) > 0 && recBytes+rb > req.MaxBytes {
				break
			}
			res.Recs = append(res.Recs, r)
			recBytes += rb
		}
		res.Agg.Observe(r.Val, matched)
		consumed++
	}
	return res, consumed
}

// Agg is the filter aggregate: row counts plus sum/min/max over the
// counter field (ValueCounter) of matched rows. Min/Max are zero while
// Matched is zero.
type Agg struct {
	Scanned, Matched uint64
	Sum, Min, Max    uint64
}

// Observe folds one scanned row into the aggregate; matched reports
// whether the predicate selected it. Both execution paths fold rows in
// ascending key order through this one function, so host and DIMM
// aggregates are identical by construction.
func (a *Agg) Observe(val []byte, matched bool) {
	a.Scanned++
	if !matched {
		return
	}
	a.Matched++
	v := ValueCounter(val)
	a.Sum += v
	if a.Matched == 1 || v < a.Min {
		a.Min = v
	}
	if a.Matched == 1 || v > a.Max {
		a.Max = v
	}
}

// ValueCounter reads a value's counter field: its first 8 bytes as a
// little-endian integer, zero-extended when the value is shorter. The
// aggregate and fetch-and-add operators agree on this interpretation.
func ValueCounter(val []byte) uint64 {
	var b [8]byte
	copy(b[:], val)
	return binary.LittleEndian.Uint64(b[:])
}

// PutValueCounter writes v into a value's counter field in place (up to
// the first 8 bytes; shorter values keep only the low bytes).
func PutValueCounter(val []byte, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	copy(val, b[:len(b)])
}
