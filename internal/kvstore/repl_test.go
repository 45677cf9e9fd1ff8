package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/sim"
)

func TestReplCodecRoundTrip(t *testing.T) {
	enc := AppendReplRequest([]byte{1, 2}, OpReplSet, "alpha", []byte("beta"), 7, 42)
	if !bytes.Equal(enc[:2], []byte{1, 2}) {
		t.Fatal("AppendReplRequest disturbed the existing buffer")
	}
	enc = enc[2:]
	op, keyLen, valLen, ok := ParseReqHeader(enc)
	if !ok || op != OpReplSet || keyLen != 5 || valLen != 4 {
		t.Fatalf("header parse: op=%d keyLen=%d valLen=%d ok=%v", op, keyLen, valLen, ok)
	}
	ep, ver, ok := ParseReplVer(enc[ReqHeaderBytes:])
	if !ok || ep != 7 || ver != 42 {
		t.Fatalf("version parse: epoch=%d ver=%d ok=%v", ep, ver, ok)
	}
	if _, _, ok := ParseReplVer(enc[ReqHeaderBytes : ReqHeaderBytes+ReplVerBytes-1]); ok {
		t.Fatal("short version block parsed")
	}
	body := enc[ReqHeaderBytes+ReplVerBytes:]
	if string(body[:keyLen]) != "alpha" || !bytes.Equal(body[keyLen:], []byte("beta")) {
		t.Fatal("body bytes differ from inputs")
	}
}

func TestDeltaRequestShape(t *testing.T) {
	enc := AppendDeltaRequest(nil, 99)
	op, keyLen, valLen, ok := ParseReqHeader(enc)
	if !ok || op != OpDelta || keyLen != 0 || valLen != 8 {
		t.Fatalf("delta request header: op=%d keyLen=%d valLen=%d ok=%v", op, keyLen, valLen, ok)
	}
	if _, _, ok := ParseDelta([]byte{1, 2, 3}); ok {
		t.Fatal("truncated delta payload parsed")
	}
	if through, recs, ok := ParseDelta(make([]byte, 12)); !ok || through != 0 || len(recs) != 0 {
		t.Fatalf("empty delta: through=%d recs=%d ok=%v", through, len(recs), ok)
	}
}

func TestVersionOrdering(t *testing.T) {
	cases := []struct {
		e1   uint32
		v1   uint64
		e2   uint32
		v2   uint64
		want bool
	}{
		{0, 2, 0, 1, true},
		{0, 1, 0, 1, false},
		{0, 1, 0, 2, false},
		{1, 0, 0, 99, true}, // a higher epoch fences any older version
		{0, 99, 1, 0, false},
	}
	for _, c := range cases {
		if got := newer(c.e1, c.v1, c.e2, c.v2); got != c.want {
			t.Errorf("newer(%d,%d vs %d,%d) = %v, want %v", c.e1, c.v1, c.e2, c.v2, got, c.want)
		}
	}
}

// replHarness is a two-store rig on one MCN server: srv is the keyspace
// primary, peer the backup, and clients dial from the host.
type replHarness struct {
	k         *sim.Kernel
	s         *cluster.McnServer
	srv, peer *Server
	hostEp    cluster.Endpoint
}

func newReplHarness(t *testing.T) *replHarness {
	t.Helper()
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN5.Options())
	srv := NewServer(k, cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}, 11211)
	peer := NewServer(k, cluster.Endpoint{Node: s.Mcns[1].Node, IP: s.Mcns[1].IP}, 12211)
	return &replHarness{
		k: k, s: s, srv: srv, peer: peer,
		hostEp: cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()},
	}
}

func (h *replHarness) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	h.k.Go("driver", fn)
	h.k.RunUntil(sim.Time(5 * sim.Second))
	h.k.Shutdown()
}

func TestVersionedWritesAndFailoverEpoch(t *testing.T) {
	h := newReplHarness(t)
	h.run(t, func(p *sim.Proc) {
		c, err := Dial(p, h.hostEp, h.s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		if err := c.Set(p, "k", []byte("v1")); err != nil {
			panic(err)
		}
		if err := c.Set(p, "k", []byte("v2")); err != nil {
			panic(err)
		}
		// A failover-flagged write bumps the epoch to fence the dead
		// primary's unforwarded writes.
		if _, _, err := c.do(p, OpSet|FailoverFlag, "k", []byte("v3")); err != nil {
			panic(err)
		}
		c.Close(p)
	})
	v := h.srv.Versions()["k"]
	if v.Epoch != 1 || v.Dead {
		t.Fatalf("failover write version: %+v, want epoch 1", v)
	}
	if h.srv.FailoverSets != 1 {
		t.Fatalf("FailoverSets = %d", h.srv.FailoverSets)
	}
	if h.srv.applySeq != 3 {
		t.Fatalf("applySeq = %d after 3 writes", h.srv.applySeq)
	}
}

func TestReplApplyNewerWinsAndTombstones(t *testing.T) {
	h := newReplHarness(t)
	h.run(t, func(p *sim.Proc) {
		if !h.peer.ApplyReplRecord(p, ReplRecord{Op: OpSet, Key: "k", Val: []byte("new"), Epoch: 0, Ver: 5}) {
			t.Error("fresh repl apply rejected")
		}
		if h.peer.ApplyReplRecord(p, ReplRecord{Op: OpSet, Key: "k", Val: []byte("old"), Epoch: 0, Ver: 3}) {
			t.Error("stale repl apply accepted")
		}
		if !h.peer.ApplyReplRecord(p, ReplRecord{Op: OpDelete, Key: "k", Epoch: 0, Ver: 6}) {
			t.Error("newer tombstone rejected")
		}
		if h.peer.ApplyReplRecord(p, ReplRecord{Op: OpSet, Key: "k", Val: []byte("zombie"), Epoch: 0, Ver: 4}) {
			t.Error("write older than the tombstone resurrected the key")
		}
	})
	if h.peer.ReplApplied != 2 || h.peer.ReplStale != 2 {
		t.Fatalf("applied=%d stale=%d", h.peer.ReplApplied, h.peer.ReplStale)
	}
	if len(h.peer.index) != 0 {
		t.Fatalf("tombstoned store has %d live keys", len(h.peer.index))
	}
	v := h.peer.Versions()["k"]
	if !v.Dead || v.Ver != 6 {
		t.Fatalf("tombstone version %+v", v)
	}
}

func TestReplOpsOverTheWire(t *testing.T) {
	h := newReplHarness(t)
	h.run(t, func(p *sim.Proc) {
		conn, err := h.hostEp.Node.Stack.Connect(p, h.s.Mcns[1].IP, 12211)
		if err != nil {
			panic(err)
		}
		send := func(buf []byte) byte {
			if err := conn.Send(p, buf); err != nil {
				panic(err)
			}
			var hdr [RespHeaderBytes]byte
			got := 0
			for got < len(hdr) {
				n, ok := conn.Recv(p, hdr[got:])
				got += n
				if !ok {
					panic("stream ended")
				}
			}
			status, vl, _ := ParseRespHeader(hdr[:])
			if vl != 0 {
				panic("unexpected payload")
			}
			return status
		}
		if st := send(AppendReplRequest(nil, OpReplSet, "w", []byte("x"), 0, 9)); st != StatusOK {
			t.Errorf("repl set status %d", st)
		}
		// A duplicate (resent after a redial) is stale but still OK.
		if st := send(AppendReplRequest(nil, OpReplSet, "w", []byte("x"), 0, 9)); st != StatusOK {
			t.Errorf("duplicate repl set status %d", st)
		}
		if st := send(AppendReplRequest(nil, OpReplDelete, "w", nil, 0, 10)); st != StatusOK {
			t.Errorf("repl delete status %d", st)
		}
		// OpDelta demands an 8-byte cursor value.
		if st := send(AppendRequest(nil, OpDelta, "", []byte("short"))); st != StatusBadOp {
			t.Errorf("malformed delta status %d", st)
		}
	})
	if h.peer.ReplApplied != 2 || h.peer.ReplStale != 1 {
		t.Fatalf("applied=%d stale=%d", h.peer.ReplApplied, h.peer.ReplStale)
	}
}

func TestDeltaStreamConvergesAndPaginates(t *testing.T) {
	h := newReplHarness(t)
	const keys = 40
	h.run(t, func(p *sim.Proc) {
		c, err := Dial(p, h.hostEp, h.s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("k%02d", i)
			if err := c.Set(p, key, bytes.Repeat([]byte{byte(i)}, 8<<10)); err != nil {
				panic(err)
			}
		}
		// Overwrite half so the journal holds superseded entries the
		// delta stream must skip.
		for i := 0; i < keys/2; i++ {
			key := fmt.Sprintf("k%02d", i)
			if err := c.Set(p, key, []byte("final")); err != nil {
				panic(err)
			}
		}
		if ok, err := c.Delete(p, "k00"); err != nil || !ok {
			panic("delete failed")
		}
		c.Close(p)

		// Pull the whole journal into the peer, chunk by chunk: 40 fresh
		// 8KB values exceed the 128KB chunk bound, so pagination engages.
		conn, err := h.peer.Endpoint().Node.Stack.Connect(p, h.s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		var after uint64
		pulls := 0
		for {
			if err := conn.Send(p, AppendDeltaRequest(nil, after)); err != nil {
				panic(err)
			}
			var hdr [RespHeaderBytes]byte
			got := 0
			for got < len(hdr) {
				n, ok := conn.Recv(p, hdr[got:])
				got += n
				if !ok {
					panic("stream ended")
				}
			}
			_, vl, _ := ParseRespHeader(hdr[:])
			payload := make([]byte, vl)
			got = 0
			for got < len(payload) {
				n, ok := conn.Recv(p, payload[got:])
				got += n
				if !ok {
					panic("stream ended")
				}
			}
			through, recs, ok := ParseDelta(payload)
			if !ok {
				t.Error("delta payload failed to parse")
				return
			}
			pulls++
			for _, r := range recs {
				h.peer.ApplyReplRecord(p, r)
			}
			if len(recs) == 0 && through == after {
				break
			}
			after = through
		}
		if pulls < 3 {
			t.Errorf("delta stream finished in %d pulls; chunking never engaged", pulls)
		}
	})
	if h.srv.DeltaRecs >= keys+keys/2+1 {
		t.Fatalf("delta shipped %d records; superseded journal entries not skipped", h.srv.DeltaRecs)
	}
	pv, bv := h.srv.Versions(), h.peer.Versions()
	if len(pv) != len(bv) {
		t.Fatalf("version maps differ in size: %d vs %d", len(pv), len(bv))
	}
	for k, v := range pv {
		if bv[k] != v {
			t.Fatalf("key %s diverged: %+v vs %+v", k, v, bv[k])
		}
	}
}

func TestPreloadIsVersionZeroAndUnjournaled(t *testing.T) {
	h := newReplHarness(t)
	h.srv.Preload("warm", []byte("data"))
	if h.srv.applySeq != 0 {
		t.Fatalf("preload advanced the journal to %d", h.srv.applySeq)
	}
	v := h.srv.Versions()["warm"]
	if v.Epoch != 0 || v.Ver != 0 || v.Dead {
		t.Fatalf("preload version %+v, want zero", v)
	}
	if len(h.srv.index) != 1 {
		t.Fatalf("live len %d", len(h.srv.index))
	}
	// Re-preloading the same key replaces it without double-counting.
	h.srv.Preload("warm", []byte("data2"))
	if len(h.srv.index) != 1 {
		t.Fatalf("re-preload live len %d", len(h.srv.index))
	}
	h.k.Shutdown()
}

func TestSyncSetWithoutForwarderBehavesAsPlain(t *testing.T) {
	h := newReplHarness(t)
	h.run(t, func(p *sim.Proc) {
		c, err := Dial(p, h.hostEp, h.s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		if err := c.SetSync(p, "s", []byte("v")); err != nil {
			t.Errorf("sync set on an unreplicated server: %v", err)
		}
		got, ok, err := c.Get(p, "s")
		if err != nil || !ok || string(got) != "v" {
			t.Error("sync-written key unreadable")
		}
		c.Close(p)
	})
}
