// Package kvstore is a memcached-class key/value service used to exercise
// MCN as a disaggregated-memory tier: the store runs on an MCN node, keeps
// its data in the DIMM's DRAM, and serves GET/SET/DELETE over ordinary TCP
// — which, on an MCN server, happens to traverse the memory channel. The
// paper motivates exactly this near-memory use (key/value lookup
// acceleration, refs [8][9]) and its Discussion proposes replacing a rack
// of cache nodes with one MCN server.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

// Wire protocol: request = [1B op][2B keyLen][4B valLen][key][val]
//
//	response = [1B status][4B valLen][val]
//
// Replication ops (OpReplSet, OpReplDelete) extend the fixed header with
// a 12-byte version block — [4B epoch][8B ver] — between the header and
// the body, so a backup can apply forwarded writes under the same
// last-writer-wins order the primary assigned.
const (
	OpGet = iota + 1
	OpSet
	OpDelete
	// OpReplSet / OpReplDelete apply a forwarded (or anti-entropy) write
	// at its origin version: newer versions win, older ones are ignored.
	OpReplSet
	OpReplDelete
	// OpDelta is the anti-entropy pull: the value is an 8-byte apply
	// sequence and the response is a delta payload of every live version
	// applied after it (see AppendDeltaRequest / ParseDelta).
	OpDelta
	// Near-memory operators (internal/nmop): the key field carries the
	// operator's primary/start key and the value field its payload
	// (nmop.ParseOpRequest). They run on the DIMM-resident store so only
	// results — not raw rows — cross the memory channel.
	OpMultiGet
	OpScan
	OpFilter
	OpCAS
	OpFetchAdd
)

// opKindBase maps the operator opcodes onto nmop.Kind: OpMultiGet <->
// nmop.KindMultiGet and so on, in declaration order.
const opKindBase = OpMultiGet - int(nmop.KindMultiGet)

// The top bits of the op byte are per-request flags; OpMask strips them.
const (
	// SyncFlag on a SET/DELETE asks the primary to hold the response
	// until the backup acknowledged the forwarded write (or the backup is
	// not admitted, in which case the write is acked durable-at-every-
	// admitted-replica).
	SyncFlag = 0x80
	// FailoverFlag marks a request the replica-aware router redirected to
	// a backup store because the primary's breaker was open. Failover
	// writes open a new per-key epoch, fencing any of the dead primary's
	// forwards still in flight.
	FailoverFlag = 0x40
	// OpMask strips the flag bits off the op byte.
	OpMask = 0x3F
)

const (
	StatusOK = iota + 1
	StatusMiss
	// StatusBadOp reports an unknown opcode; the request body is consumed
	// and the connection stays usable.
	StatusBadOp
	// StatusTooLarge reports a key or value exceeding MaxKeyBytes /
	// MaxValueBytes. The server cannot trust the declared body length, so
	// it closes the connection after responding.
	StatusTooLarge
	// StatusUnavail reports a sync write whose backup ack did not arrive
	// in time while the backup was still admitted — the caller cannot
	// assume the write is replicated.
	StatusUnavail
	// StatusBadRequest reports a malformed operator request (zero-key
	// multi-GET, inverted range, oversized predicate, ...). The body was
	// consumed per the validated header, so — unlike StatusTooLarge —
	// the connection stays usable.
	StatusBadRequest
	// StatusConflict reports a CAS whose compare failed; the response
	// value is the current value. Not an error — the caller retries.
	StatusConflict
)

// Size limits, enforced server-side (and preflighted client-side), in the
// spirit of memcached's 250-byte keys and 1MB values.
const (
	MaxKeyBytes   = 250
	MaxValueBytes = 1 << 20
)

// ErrBadOp is returned by the client when the server rejects an opcode.
var ErrBadOp = fmt.Errorf("kvstore: unknown opcode")

// ErrTooLarge is returned when a key or value exceeds the size limits.
var ErrTooLarge = fmt.Errorf("kvstore: key or value too large")

// ErrUnavail is returned when a sync write could not be confirmed at the
// backup before the deadline.
var ErrUnavail = fmt.Errorf("kvstore: sync write unconfirmed at backup")

// ErrBadRequest is returned by the client when the server rejects a
// malformed operator request.
var ErrBadRequest = fmt.Errorf("kvstore: malformed operator request")

// ReqHeaderBytes and RespHeaderBytes are the fixed header sizes; exported
// so load generators (internal/serve) can speak the wire protocol with
// pipelined custom framing.
const (
	ReqHeaderBytes  = 7
	RespHeaderBytes = 5
)

const reqHeaderBytes = ReqHeaderBytes
const respHeaderBytes = RespHeaderBytes

// AppendRequest appends the wire encoding of one request to buf and
// returns the extended slice.
func AppendRequest(buf []byte, op byte, key string, val []byte) []byte {
	var hdr [reqHeaderBytes]byte
	hdr[0] = op
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(val)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	return append(buf, val...)
}

// ParseReqHeader decodes a request header into its opcode and declared
// key/value lengths; ok is false for truncated input. The lengths are as
// declared on the wire — callers must still enforce MaxKeyBytes /
// MaxValueBytes before trusting them.
func ParseReqHeader(hdr []byte) (op byte, keyLen, valLen int, ok bool) {
	if len(hdr) < reqHeaderBytes {
		return 0, 0, 0, false
	}
	return hdr[0], int(binary.LittleEndian.Uint16(hdr[1:3])), int(binary.LittleEndian.Uint32(hdr[3:7])), true
}

// AppendResponse appends the wire encoding of one response to buf and
// returns the extended slice. The batched server concatenates responses
// with it into one contiguous burst per write.
func AppendResponse(buf []byte, status byte, val []byte) []byte {
	var hdr [respHeaderBytes]byte
	hdr[0] = status
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(val)))
	buf = append(buf, hdr[:]...)
	return append(buf, val...)
}

// ParseRespHeader decodes a response header into its status and value
// length; ok is false for truncated input.
func ParseRespHeader(hdr []byte) (status byte, valLen int, ok bool) {
	if len(hdr) < respHeaderBytes {
		return 0, 0, false
	}
	return hdr[0], int(binary.LittleEndian.Uint32(hdr[1:5])), true
}

// ReplVerBytes is the size of the version block replication ops carry
// between the fixed header and the body: [4B epoch][8B ver].
const ReplVerBytes = 12

// ReplRecord is one versioned write as it travels between replicas — on
// the forward stream, in delta payloads, and through ApplyReplRecord.
// Op is OpSet or OpDelete (a delete ships as a versioned tombstone).
type ReplRecord struct {
	Op    byte
	Key   string
	Val   []byte
	Epoch uint32
	Ver   uint64
}

// Forwarder receives every locally-applied write of a primary store for
// primary->backup replication. Forward reports whether the write may be
// acked to the client: async forwards always return true immediately;
// sync forwards block (on p) until the backup acked, the backup was
// found not admitted (degraded local ack), or the deadline passed
// (false -> StatusUnavail).
type Forwarder interface {
	Forward(p *sim.Proc, rec ReplRecord, sync bool) bool
}

// AppendReplRequest appends one replication request — a version-extended
// OpReplSet/OpReplDelete — to buf and returns the extended slice.
func AppendReplRequest(buf []byte, op byte, key string, val []byte, epoch uint32, ver uint64) []byte {
	var hdr [reqHeaderBytes + ReplVerBytes]byte
	hdr[0] = op
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(val)))
	binary.LittleEndian.PutUint32(hdr[7:11], epoch)
	binary.LittleEndian.PutUint64(hdr[11:19], ver)
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	return append(buf, val...)
}

// ParseReplVer decodes the 12-byte version block of a replication op.
func ParseReplVer(b []byte) (epoch uint32, ver uint64, ok bool) {
	if len(b) < ReplVerBytes {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint64(b[4:12]), true
}

// AppendDeltaRequest appends one anti-entropy pull request to buf: "send
// me every key version applied after afterSeq". The response value is a
// delta payload (ParseDelta); the puller advances afterSeq to the
// payload's throughSeq and repeats until a chunk comes back empty with
// throughSeq == afterSeq.
func AppendDeltaRequest(buf []byte, afterSeq uint64) []byte {
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], afterSeq)
	return AppendRequest(buf, OpDelta, "", seq[:])
}

// Delta payload: [8B throughSeq][4B count] then count records, each
// [1B op][4B epoch][8B ver][2B keyLen][4B valLen][key][val].
const deltaHdrBytes = 12
const deltaRecHdrBytes = 19

// deltaChunkBytes bounds one delta response so a catch-up of a large
// store streams in bounded chunks instead of one giant value.
const deltaChunkBytes = 128 << 10

// ParseDelta decodes a delta payload into its records and the journal
// sequence the chunk reached; ok is false on a malformed payload.
func ParseDelta(payload []byte) (throughSeq uint64, recs []ReplRecord, ok bool) {
	if len(payload) < deltaHdrBytes {
		return 0, nil, false
	}
	throughSeq = binary.LittleEndian.Uint64(payload[0:8])
	count := int(binary.LittleEndian.Uint32(payload[8:12]))
	p := payload[deltaHdrBytes:]
	for i := 0; i < count; i++ {
		if len(p) < deltaRecHdrBytes {
			return 0, nil, false
		}
		op := p[0]
		epoch := binary.LittleEndian.Uint32(p[1:5])
		ver := binary.LittleEndian.Uint64(p[5:13])
		kl := int(binary.LittleEndian.Uint16(p[13:15]))
		vl := int(binary.LittleEndian.Uint32(p[15:19]))
		p = p[deltaRecHdrBytes:]
		if len(p) < kl+vl {
			return 0, nil, false
		}
		rec := ReplRecord{Op: op, Key: string(p[:kl]), Epoch: epoch, Ver: ver}
		if vl > 0 {
			rec.Val = append([]byte(nil), p[kl:kl+vl]...)
		}
		recs = append(recs, rec)
		p = p[kl+vl:]
	}
	return throughSeq, recs, true
}

// Version is one key's exported replication version: (epoch, ver)
// ordered lexicographically, Dead marking a tombstone. Convergence
// checks compare two stores' version maps.
type Version struct {
	Epoch uint32
	Ver   uint64
	Dead  bool
}

// newer reports whether version (e1, v1) supersedes (e2, v2).
func newer(e1 uint32, v1 uint64, e2 uint32, v2 uint64) bool {
	if e1 != e2 {
		return e1 > e2
	}
	return v1 > v2
}

// Server is one key/value node.
type Server struct {
	ep    cluster.Endpoint
	port  uint16
	data  map[string]entry
	bytes int64

	// index keeps the live keys sorted so range operators (scan, filter)
	// walk the store in deterministic lexical order — Go map iteration
	// would not replay. Maintained by store()/Preload; tombstoned keys
	// are absent.
	index []string

	// applySeq numbers every local write in apply order; journal records
	// (seq, key) pairs in that order so a delta stream walks writes
	// deterministically (Go map iteration would not replay).
	applySeq uint64
	journal  []journalEntry

	// fwd, when set, receives every locally-applied client write for
	// primary->backup forwarding. Forwarded/anti-entropy applies
	// (OpReplSet/OpReplDelete) are never re-forwarded.
	fwd Forwarder

	// tracer, when set, stamps each request's service-complete boundary
	// (the moment its response is appended to the write burst).
	tracer *obs.Tracer

	// Stats.
	Gets, Sets, Dels, Misses int64
	// BadOps and TooLarge count rejected malformed requests.
	BadOps, TooLarge int64
	// Operator stats: per-kind request counts, rows touched by range
	// operators, malformed operator requests rejected (StatusBadRequest),
	// and CAS compare failures (StatusConflict).
	MultiGets, Scans, Filters, CASes, FAdds int64
	OpRows, BadReqs, Conflicts              int64
	// Replication stats: versioned applies accepted/ignored, writes
	// that arrived flagged as failover traffic, and delta-stream records.
	ReplApplied, ReplStale int64
	FailoverSets           int64
	DeltaRecs              int64
}

// entry is one stored key: its value plus the replication version. A
// tombstone (dead=true) keeps the version of a deleted key so a delete
// can win over a slower forwarded set.
type entry struct {
	val   []byte
	epoch uint32
	ver   uint64
	seq   uint64 // applySeq of the last write (journal-supersession key)
	dead  bool
}

type journalEntry struct {
	seq uint64
	key string
}

// SetTracer attaches a span tracer; the server stamps the DimmService ->
// ReturnPath boundary of sampled requests through it. Passing nil
// detaches.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer = t }

// SetForwarder attaches the primary->backup forwarder; nil detaches.
func (s *Server) SetForwarder(f Forwarder) { s.fwd = f }

// Versions snapshots every key's replication version, tombstones
// included — the comparison surface for convergence checks.
func (s *Server) Versions() map[string]Version {
	out := make(map[string]Version, len(s.data))
	for k, e := range s.data {
		out[k] = Version{Epoch: e.epoch, Ver: e.ver, Dead: e.dead}
	}
	return out
}

// Endpoint returns the server's cluster endpoint (the node it runs on).
func (s *Server) Endpoint() cluster.Endpoint { return s.ep }

// Port returns the server's listening port.
func (s *Server) Port() uint16 { return s.port }

// NewServer creates a store and starts accepting connections over the
// endpoint's transport (TCP by default; mcnt when the topology installs
// it — the codec is identical over either).
func NewServer(k *sim.Kernel, ep cluster.Endpoint, port uint16) *Server {
	s := &Server{ep: ep, port: port, data: make(map[string]entry)}
	k.Go(fmt.Sprintf("kv/%s", ep.Node.Name), func(p *sim.Proc) {
		l, err := ep.ListenConn(port)
		if err != nil {
			panic(err)
		}
		for {
			c, err := l.AcceptConn(p)
			if err != nil {
				return
			}
			k.Go("kv/conn", func(cp *sim.Proc) { s.serve(cp, c) })
		}
	})
	return s
}

// Bytes returns the resident data size.
func (s *Server) Bytes() int64 { return s.bytes }

// Preload inserts key/val directly into the store, bypassing the network
// path — the warm-up an operator (or a serving benchmark) performs before
// the measured window. It charges no simulated time.
func (s *Server) Preload(key string, val []byte) {
	old, had := s.data[key]
	s.bytes -= int64(len(old.val))
	// Preloaded data is version zero on every replica, so replicas
	// preloaded identically start converged without any journal.
	s.data[key] = entry{val: val}
	s.bytes += int64(len(val))
	if !had || old.dead {
		s.indexInsert(key)
	}
}

// respFlushBytes bounds the response burst accumulated before an early
// flush, so a train of large GETs cannot grow the burst without limit.
const respFlushBytes = 32 << 10

// serve runs one connection. Requests are framed back to back (the
// client-side batcher coalesces several per segment), so the loop keeps
// consuming requests for as long as bytes are already on hand and writes
// the accumulated responses as one contiguous burst; it flushes before
// any read that would block, which keeps single requests at exactly one
// response write (no added latency when traffic is sparse).
func (s *Server) serve(p *sim.Proc, c netstack.Conn) {
	in := connReader{c: c}
	var out []byte
	// reqIdx is the FIFO index of the next request on this connection —
	// the protocol has no request ids, so FIFO order is the correlation
	// key the tracer matches response stamps with.
	var reqIdx int64
	sip, sport, cip, cport := c.Tuple()
	mark := func() {
		if s.tracer != nil {
			s.tracer.ServerMark(cip, cport, sip, sport, reqIdx, p.Now())
		}
		reqIdx++
	}
	flush := func() bool {
		if len(out) == 0 {
			return true
		}
		err := c.Send(p, out)
		out = out[:0]
		return err == nil
	}
	for {
		if in.pending() < reqHeaderBytes && !flush() {
			return
		}
		hdr, ok := in.next(p, reqHeaderBytes)
		if !ok {
			return
		}
		op, keyLen, valLen, _ := ParseReqHeader(hdr)
		base := op & OpMask
		sync := op&SyncFlag != 0
		failover := op&FailoverFlag != 0
		if keyLen > MaxKeyBytes || valLen > MaxValueBytes {
			// The declared body length cannot be trusted (consuming it
			// could mean gigabytes), so reject and close the connection.
			s.TooLarge++
			out = AppendResponse(out, StatusTooLarge, nil)
			c.Send(p, out)
			c.Close(p)
			return
		}
		var epoch uint32
		var ver uint64
		if base == OpReplSet || base == OpReplDelete {
			if in.pending() < ReplVerBytes && !flush() {
				return
			}
			vb, ok := in.next(p, ReplVerBytes)
			if !ok {
				return
			}
			epoch, ver, _ = ParseReplVer(vb)
		}
		if in.pending() < keyLen+valLen && !flush() {
			return
		}
		body, ok := in.next(p, keyLen+valLen)
		if !ok {
			return
		}
		key := string(body[:keyLen])
		status := byte(StatusOK)
		var val []byte
		switch base {
		case OpGet:
			s.Gets++
			e, ok := s.data[key]
			if !ok || e.dead {
				s.Misses++
				status = StatusMiss
			} else {
				// The near-memory read: stream the value from the
				// node's DRAM.
				s.ep.Node.MemStream(p, int64(len(e.val)), false)
				val = e.val
			}
		case OpSet:
			s.Sets++
			stored := append([]byte(nil), body[keyLen:]...)
			cur := s.data[key]
			ep2, v2 := cur.epoch, cur.ver+1
			if failover {
				// A failover write opens a new epoch, fencing every
				// forward of the dead primary still in flight.
				s.FailoverSets++
				ep2++
			}
			s.store(key, stored, ep2, v2, false)
			s.ep.Node.MemStream(p, int64(len(stored)), true)
			if s.fwd != nil && !failover {
				if !s.fwd.Forward(p, ReplRecord{Op: OpSet, Key: key, Val: stored, Epoch: ep2, Ver: v2}, sync) {
					status = StatusUnavail
				}
			}
		case OpDelete:
			s.Dels++
			cur, ok := s.data[key]
			if !ok || cur.dead {
				s.Misses++
				status = StatusMiss
			} else {
				ep2, v2 := cur.epoch, cur.ver+1
				if failover {
					s.FailoverSets++
					ep2++
				}
				s.store(key, nil, ep2, v2, true)
				if s.fwd != nil && !failover {
					if !s.fwd.Forward(p, ReplRecord{Op: OpDelete, Key: key, Epoch: ep2, Ver: v2}, sync) {
						status = StatusUnavail
					}
				}
			}
		case OpReplSet, OpReplDelete:
			ro := byte(OpSet)
			var rv []byte
			if base == OpReplDelete {
				ro = OpDelete
			} else {
				rv = append([]byte(nil), body[keyLen:]...)
			}
			// A stale apply (the local version is already newer) is an
			// idempotent no-op: still OK, so forward retries converge.
			s.applyRepl(p, ReplRecord{Op: ro, Key: key, Val: rv, Epoch: epoch, Ver: ver})
		case OpMultiGet, OpScan, OpFilter, OpCAS, OpFetchAdd:
			val, status = s.execOp(p, base, key, body[keyLen:], failover, sync)
		case OpDelta:
			if valLen != 8 {
				s.BadOps++
				status = StatusBadOp
			} else {
				after := binary.LittleEndian.Uint64(body[keyLen:])
				val = s.buildDelta(p, after)
			}
		default:
			// Unknown opcode: the body was consumed per the (validated)
			// header, so report the error and keep the connection usable.
			s.BadOps++
			status = StatusBadOp
		}
		out = AppendResponse(out, status, val)
		mark()
		if len(out) >= respFlushBytes && !flush() {
			return
		}
	}
}

// store applies one write's shared bookkeeping: bytes accounting, the
// live-key index, the next apply sequence, and the journal record the
// delta stream walks.
func (s *Server) store(key string, val []byte, epoch uint32, ver uint64, dead bool) {
	old, had := s.data[key]
	wasLive := had && !old.dead
	s.bytes -= int64(len(old.val))
	s.applySeq++
	s.data[key] = entry{val: val, epoch: epoch, ver: ver, seq: s.applySeq, dead: dead}
	s.bytes += int64(len(val))
	s.journal = append(s.journal, journalEntry{seq: s.applySeq, key: key})
	if !dead && !wasLive {
		s.indexInsert(key)
	} else if dead && wasLive {
		s.indexRemove(key)
	}
}

// indexInsert adds a newly-live key to the sorted index; the caller
// guarantees it is absent.
func (s *Server) indexInsert(key string) {
	i := sort.SearchStrings(s.index, key)
	s.index = append(s.index, "")
	copy(s.index[i+1:], s.index[i:])
	s.index[i] = key
}

// indexRemove drops a no-longer-live key from the sorted index.
func (s *Server) indexRemove(key string) {
	i := sort.SearchStrings(s.index, key)
	if i < len(s.index) && s.index[i] == key {
		s.index = append(s.index[:i], s.index[i+1:]...)
	}
}

// applyRepl applies one forwarded or anti-entropy record iff its version
// supersedes the local one. Older (or equal) versions are ignored —
// replays and redundant pulls are idempotent.
func (s *Server) applyRepl(p *sim.Proc, rec ReplRecord) bool {
	cur := s.data[rec.Key]
	if !newer(rec.Epoch, rec.Ver, cur.epoch, cur.ver) {
		s.ReplStale++
		return false
	}
	dead := rec.Op == OpDelete
	var val []byte
	if !dead {
		val = rec.Val
	}
	s.store(rec.Key, val, rec.Epoch, rec.Ver, dead)
	if len(val) > 0 {
		s.ep.Node.MemStream(p, int64(len(val)), true)
	}
	s.ReplApplied++
	return true
}

// ApplyReplRecord applies one replication record directly (the
// anti-entropy puller's path, bypassing the wire when it already has the
// decoded record in hand). It reports whether the record was newer.
func (s *Server) ApplyReplRecord(p *sim.Proc, rec ReplRecord) bool { return s.applyRepl(p, rec) }

// buildDelta encodes every journaled write after afterSeq, newest
// version only, into one bounded delta chunk. The journal is walked in
// apply order (superseded entries skipped — the superseding entry ships
// the key), so the stream is deterministic where map iteration is not.
func (s *Server) buildDelta(p *sim.Proc, afterSeq uint64) []byte {
	i := sort.Search(len(s.journal), func(i int) bool { return s.journal[i].seq > afterSeq })
	payload := make([]byte, deltaHdrBytes)
	through := afterSeq
	count := 0
	var streamed int64
	for ; i < len(s.journal); i++ {
		je := s.journal[i]
		through = je.seq
		e, ok := s.data[je.key]
		if !ok || e.seq != je.seq {
			continue
		}
		rop := byte(OpSet)
		var val []byte
		if e.dead {
			rop = OpDelete
		} else {
			val = e.val
		}
		var rh [deltaRecHdrBytes]byte
		rh[0] = rop
		binary.LittleEndian.PutUint32(rh[1:5], e.epoch)
		binary.LittleEndian.PutUint64(rh[5:13], e.ver)
		binary.LittleEndian.PutUint16(rh[13:15], uint16(len(je.key)))
		binary.LittleEndian.PutUint32(rh[15:19], uint32(len(val)))
		payload = append(payload, rh[:]...)
		payload = append(payload, je.key...)
		payload = append(payload, val...)
		streamed += int64(len(val))
		count++
		if len(payload) >= deltaChunkBytes {
			break
		}
	}
	binary.LittleEndian.PutUint64(payload[0:8], through)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(count))
	if streamed > 0 {
		// The near-memory scan: the delta's values stream from DRAM.
		s.ep.Node.MemStream(p, streamed, false)
	}
	s.DeltaRecs += int64(count)
	return payload
}

// connReader accumulates stream bytes so the request loop can consume
// whole fields without one Recv call (and its socket cost) per field —
// the server-side half of request batching.
type connReader struct {
	c   netstack.Conn
	buf []byte
	r   int
}

// pending reports the bytes obtainable without blocking: already
// buffered here plus already in the connection's receive buffer.
func (cr *connReader) pending() int { return len(cr.buf) - cr.r + cr.c.Buffered() }

// next returns exactly n bytes, blocking as needed; the slice is valid
// until the following call. ok is false if the stream ended short.
func (cr *connReader) next(p *sim.Proc, n int) ([]byte, bool) {
	if len(cr.buf)-cr.r < n && cr.r > 0 {
		cr.buf = append(cr.buf[:0], cr.buf[cr.r:]...)
		cr.r = 0
	}
	for len(cr.buf)-cr.r < n {
		want := n - (len(cr.buf) - cr.r)
		if avail := cr.c.Buffered(); avail > want {
			want = avail
		}
		if want > 64<<10 {
			want = 64 << 10
		}
		start := len(cr.buf)
		cr.buf = append(cr.buf, make([]byte, want)...)
		m, ok := cr.c.Recv(p, cr.buf[start:])
		cr.buf = cr.buf[:start+m]
		if !ok && len(cr.buf)-cr.r < n {
			return nil, false
		}
	}
	out := cr.buf[cr.r : cr.r+n]
	cr.r += n
	return out, true
}

// Client is one connection to a Server.
type Client struct {
	conn netstack.Conn
	// Lat records per-operation round-trip latencies (ns).
	Lat stats.Histogram
}

// Dial connects a client from ep to the server at addr:port over the
// endpoint's transport.
func Dial(p *sim.Proc, ep cluster.Endpoint, addr netstack.IP, port uint16) (*Client, error) {
	c, err := ep.DialConn(p, addr, port)
	if err != nil {
		return nil, err
	}
	return &Client{conn: c}, nil
}

// Set stores val under key.
func (c *Client) Set(p *sim.Proc, key string, val []byte) error {
	_, _, err := c.do(p, OpSet, key, val)
	return err
}

// SetSync stores val under key and holds the ack until the write is
// durable at every admitted replica; ErrUnavail reports a write the
// primary could not confirm at the backup in time.
func (c *Client) SetSync(p *sim.Proc, key string, val []byte) error {
	_, _, err := c.do(p, OpSet|SyncFlag, key, val)
	return err
}

// Get fetches key; ok=false on miss.
func (c *Client) Get(p *sim.Proc, key string) ([]byte, bool, error) {
	v, st, err := c.do(p, OpGet, key, nil)
	return v, st == StatusOK, err
}

// Delete removes key; ok=false if it was absent.
func (c *Client) Delete(p *sim.Proc, key string) (bool, error) {
	_, st, err := c.do(p, OpDelete, key, nil)
	return st == StatusOK, err
}

// Close shuts the connection down.
func (c *Client) Close(p *sim.Proc) { c.conn.Close(p) }

func (c *Client) do(p *sim.Proc, op byte, key string, val []byte) ([]byte, byte, error) {
	// Preflight the size limits so an oversized request fails cleanly
	// instead of being rejected (and the connection closed) server-side.
	if len(key) > MaxKeyBytes || len(val) > MaxValueBytes {
		return nil, StatusTooLarge, ErrTooLarge
	}
	start := p.Now()
	req := AppendRequest(make([]byte, 0, reqHeaderBytes+len(key)+len(val)), op, key, val)
	if err := c.conn.Send(p, req); err != nil {
		return nil, 0, err
	}
	hdr := make([]byte, respHeaderBytes)
	if !netstack.ReadFull(p, c.conn, hdr) {
		return nil, 0, fmt.Errorf("kvstore: connection closed mid-response")
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:5]))
	var out []byte
	if n > 0 {
		out = make([]byte, n)
		if !netstack.ReadFull(p, c.conn, out) {
			return nil, 0, fmt.Errorf("kvstore: truncated value")
		}
	}
	c.Lat.ObserveDuration(p.Now().Sub(start))
	switch hdr[0] {
	case StatusBadOp:
		return out, hdr[0], ErrBadOp
	case StatusTooLarge:
		return out, hdr[0], ErrTooLarge
	case StatusUnavail:
		return out, hdr[0], ErrUnavail
	case StatusBadRequest:
		return out, hdr[0], ErrBadRequest
	}
	return out, hdr[0], nil
}
