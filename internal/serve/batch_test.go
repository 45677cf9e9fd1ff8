package serve

import (
	"fmt"
	"sort"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/sim"
)

// testBatch is the coalescing bound the batching tests run with.
var testBatch = BatchConfig{MaxRequests: 16, MaxBytes: 8 << 10, Window: 2 * sim.Microsecond}

// tcpFrame cracks a captured Ethernet frame into its TCP pieces. The IP
// total length bounds the payload (Ethernet pads runts), clamped to the
// frame for safety.
func tcpFrame(raw []byte) (ip netstack.IPv4Header, h netstack.TCPHeader, payload []byte, ok bool) {
	eth, ok := netstack.ParseEth(raw)
	if !ok || eth.Type != netstack.EtherTypeIPv4 {
		return ip, h, nil, false
	}
	ip, ok = netstack.ParseIPv4(raw[netstack.EthHeaderBytes:])
	if !ok || ip.Proto != netstack.ProtoTCP {
		return ip, h, nil, false
	}
	end := netstack.EthHeaderBytes + int(ip.TotalLen)
	if end > len(raw) {
		end = len(raw)
	}
	seg := raw[netstack.EthHeaderBytes+netstack.IPv4HeaderBytes : end]
	h, ok = netstack.ParseTCP(seg)
	if !ok {
		return ip, h, nil, false
	}
	return ip, h, seg[netstack.TCPHeaderBytes:], true
}

// segment is one captured TCP data segment.
type segment struct {
	seq  uint32
	data []byte
}

// reassemble rebuilds one direction's byte stream from captured data
// segments (keyed by sequence number, so retransmissions overlay
// harmlessly) and fails the test on any sequence gap.
func reassemble(t *testing.T, name string, segs []segment) []byte {
	t.Helper()
	if len(segs) == 0 {
		return nil
	}
	sort.SliceStable(segs, func(i, j int) bool { return netstack.SeqLT(segs[i].seq, segs[j].seq) })
	base := segs[0].seq
	size := 0
	for _, s := range segs {
		if end := int(s.seq-base) + len(s.data); end > size {
			size = end
		}
	}
	buf := make([]byte, size)
	covered := make([]bool, size)
	for _, s := range segs {
		off := int(s.seq - base)
		copy(buf[off:], s.data)
		for i := off; i < off+len(s.data); i++ {
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("%s: sequence gap at offset %d of %d", name, i, size)
		}
	}
	return buf
}

// TestBatchWireConformance is the wire-level proof of the coalescing
// window: it taps the host stack during a batched closed-loop run,
// reassembles every client→shard TCP stream from the raw frames, and
// checks (a) the stream is a perfectly framed back-to-back request train
// — the whole capture parses with the kvstore codec and is consumed
// exactly, (b) requests outnumber the data segments that carried them
// (multiple requests per segment: batching is real, not cosmetic), and
// (c) the response direction is an equally well-framed burst train whose
// every status is OK.
func TestBatchWireConformance(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN5.Options())
	cfg := Config{
		Seed:          7,
		Workload:      Workload{Keys: 2000, ValueBytes: 128},
		ClosedWorkers: 32,
		Warmup:        sim.Millisecond,
		Measure:       2 * sim.Millisecond,
		Drain:         2 * sim.Millisecond,
		Batch:         testBatch,
	}
	for _, m := range s.Mcns {
		ep := cluster.Endpoint{Node: m.Node, IP: m.IP}
		srv := kvstore.NewServer(k, ep, 11211)
		cfg.Shards = append(cfg.Shards, Shard{Name: m.Node.Name, Addr: m.IP, Port: 11211, Server: srv})
	}
	cfg.Clients = []cluster.Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}}

	rec := obs.NewRecorder(1 << 17)
	rec.CaptureBytes = true
	s.Host.Stack.Tap = rec

	res := Run(k, cfg)
	k.Shutdown()
	if rec.Dropped > 0 {
		t.Fatalf("capture ring overflowed (%d dropped); raise the recorder cap", rec.Dropped)
	}
	if res.Errors > 0 {
		t.Fatalf("run had %d errors\n%s", res.Errors, res)
	}
	if res.BatchSize.Max() < 2 {
		t.Fatalf("no batch ever held more than one request (max=%d); closed-loop backlog should coalesce", res.BatchSize.Max())
	}

	reqStreams := map[string][]segment{}
	respStreams := map[string][]segment{}
	reqSegments := 0
	for _, r := range rec.Records {
		ip, h, payload, ok := tcpFrame(r.Raw)
		if !ok || len(payload) == 0 {
			continue
		}
		switch {
		case r.Dir == "tx" && h.DstPort == 11211:
			key := fmt.Sprintf("%v:%d", ip.Dst, h.SrcPort)
			reqStreams[key] = append(reqStreams[key], segment{h.Seq, payload})
			reqSegments++
		case r.Dir == "rx" && h.SrcPort == 11211:
			key := fmt.Sprintf("%v:%d", ip.Src, h.DstPort)
			respStreams[key] = append(respStreams[key], segment{h.Seq, payload})
		}
	}
	if len(reqStreams) != len(cfg.Shards) {
		t.Fatalf("captured %d request streams, want one per shard (%d)", len(reqStreams), len(cfg.Shards))
	}

	totalReqs := 0
	for key, segs := range reqStreams {
		stream := reassemble(t, "request "+key, segs)
		off := 0
		for off < len(stream) {
			op, keyLen, valLen, ok := kvstore.ParseReqHeader(stream[off:])
			if !ok {
				t.Fatalf("%s: truncated request header at offset %d of %d", key, off, len(stream))
			}
			if op != kvstore.OpGet && op != kvstore.OpSet {
				t.Fatalf("%s: invalid opcode %d at offset %d", key, op, off)
			}
			if keyLen == 0 || keyLen > kvstore.MaxKeyBytes || valLen > kvstore.MaxValueBytes {
				t.Fatalf("%s: implausible lengths key=%d val=%d at offset %d", key, keyLen, valLen, off)
			}
			if off+kvstore.ReqHeaderBytes+keyLen+valLen > len(stream) {
				t.Fatalf("%s: request body overruns the stream at offset %d", key, off)
			}
			off += kvstore.ReqHeaderBytes + keyLen + valLen
			totalReqs++
		}
		if off != len(stream) {
			t.Fatalf("%s: stream not consumed exactly: %d of %d", key, off, len(stream))
		}
	}
	if totalReqs == 0 {
		t.Fatal("no requests captured")
	}
	if reqSegments >= totalReqs {
		t.Fatalf("%d data segments carried %d requests: nothing coalesced", reqSegments, totalReqs)
	}

	totalResps := 0
	for key, segs := range respStreams {
		stream := reassemble(t, "response "+key, segs)
		off := 0
		for off < len(stream) {
			status, valLen, ok := kvstore.ParseRespHeader(stream[off:])
			if !ok {
				t.Fatalf("%s: truncated response header at offset %d of %d", key, off, len(stream))
			}
			if status != kvstore.StatusOK {
				t.Fatalf("%s: response status %d at offset %d, want OK (preloaded keyspace)", key, status, off)
			}
			if off+kvstore.RespHeaderBytes+valLen > len(stream) {
				t.Fatalf("%s: response body overruns the stream at offset %d", key, off)
			}
			off += kvstore.RespHeaderBytes + valLen
			totalResps++
		}
		if off != len(stream) {
			t.Fatalf("%s: stream not consumed exactly: %d of %d", key, off, len(stream))
		}
	}
	if totalResps > totalReqs || totalResps < totalReqs*9/10 {
		t.Fatalf("responses=%d requests=%d: response train does not match the request train", totalResps, totalReqs)
	}
	t.Logf("wire: %d requests in %d segments (%.2f req/segment), %d responses, batch max=%d",
		totalReqs, reqSegments, float64(totalReqs)/float64(reqSegments), totalResps, res.BatchSize.Max())
}

// TestBatchFlushOnIdleLowLoad pins the flush-on-idle guarantee: at a
// load far below saturation the coalescing window must not inflate the
// tail — batched p99 stays within 5% of unbatched, and nearly every
// flush is a singleton.
func TestBatchFlushOnIdleLowLoad(t *testing.T) {
	run := func(b BatchConfig) *Result {
		return runOnce(t, func(k *sim.Kernel) Config {
			return mcnBench(k, 2, Config{
				Seed:       5,
				Workload:   Workload{Keys: 2000, ValueBytes: 128},
				RatePerSec: 100e3,
				Warmup:     sim.Millisecond,
				Measure:    20 * sim.Millisecond,
				Drain:      2 * sim.Millisecond,
				Batch:      b,
			})
		})
	}
	off := run(BatchConfig{})
	on := run(testBatch)
	offP99, onP99 := off.Total.Quantile(0.99), on.Total.Quantile(0.99)
	if onP99 > offP99*1.05 {
		t.Fatalf("low-load batched p99 %.0fns exceeds 1.05x unbatched %.0fns", onP99, offP99)
	}
	if on.N == 0 || on.Errors > 0 {
		t.Fatalf("batched low-load run unhealthy: n=%d errors=%d", on.N, on.Errors)
	}
	if mean := on.BatchSize.Mean(); mean > 1.2 {
		t.Fatalf("low-load batches average %.2f requests; flush-on-idle should keep them ~1", mean)
	}
}

// TestBatchedRunDeterministic: the full rendered result of a batched run
// — every histogram quantile, batch statistic and per-shard line — is
// byte-identical across two executions.
func TestBatchedRunDeterministic(t *testing.T) {
	run := func() string {
		res := runOnce(t, func(k *sim.Kernel) Config {
			return mcnBench(k, 2, Config{
				Seed:       11,
				Workload:   Workload{Keys: 2000, ValueBytes: 128},
				RatePerSec: 400e3,
				Warmup:     sim.Millisecond,
				Measure:    3 * sim.Millisecond,
				Drain:      2 * sim.Millisecond,
				Batch:      testBatch,
			})
		})
		return res.String() + res.BatchWait.String() + res.BatchSize.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("batched runs diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
}
