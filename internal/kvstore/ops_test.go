package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/sim"
)

// opsValue builds the test value for key index i: a 128-byte row whose
// counter field (first 8 bytes) is i and whose tail byte varies, so CAS
// compares are meaningful.
func opsValue(i int) []byte {
	v := make([]byte, 128)
	nmop.PutValueCounter(v, uint64(i))
	v[127] = byte(i)
	return v
}

func opsKey(i int) string { return fmt.Sprintf("key-%08d", i) }

// TestOpsMalformedRejected: the three malformed operator shapes — a
// zero-key multi-GET, an inverted scan range, an oversized predicate —
// come back as StatusBadRequest and the connection stays usable for
// well-formed traffic afterwards.
func TestOpsMalformedRejected(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN1.Options())
	srvEp := cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}
	srv := NewServer(k, srvEp, 11211)
	srv.Preload(opsKey(1), opsValue(1))
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}

	var failures []string
	k.Go("client", func(p *sim.Proc) {
		c, err := Dial(p, hostEp, s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		check := func(cond bool, msg string) {
			if !cond {
				failures = append(failures, msg)
			}
		}
		_, st, err := c.do(p, OpMultiGet, "", nmop.AppendMultiGetPayload(nil, nil))
		check(err == ErrBadRequest && st == StatusBadRequest, "zero-key multi-get not rejected as bad request")
		_, err = c.Scan(p, "key-00000009", "key-00000001", 10, 0)
		check(err == ErrBadRequest, "inverted scan range not rejected as bad request")
		_, st, err = c.do(p, OpFilter, "a",
			nmop.AppendFilterPayload(nil, "z", 1, make([]byte, nmop.MaxPredBytes+1), false))
		check(err == ErrBadRequest && st == StatusBadRequest, "oversized predicate not rejected as bad request")
		_, st, err = c.do(p, OpFetchAdd, opsKey(1), []byte{1, 2})
		check(err == ErrBadRequest && st == StatusBadRequest, "short fetch-add not rejected as bad request")
		// The connection must still serve well-formed requests.
		got, ok, err := c.Get(p, opsKey(1))
		check(err == nil && ok && bytes.Equal(got, opsValue(1)), "connection unusable after rejections")
		res, err := c.MultiGet(p, []string{opsKey(1), "missing"})
		check(err == nil && res.Found[0] && !res.Found[1], "multi-get broken after rejections")
		c.Close(p)
	})
	k.RunUntil(sim.Time(5 * sim.Second))
	k.Shutdown()
	for _, f := range failures {
		t.Error(f)
	}
	if srv.BadReqs != 4 {
		t.Errorf("BadReqs = %d, want 4", srv.BadReqs)
	}
	if srv.BadOps != 0 || srv.TooLarge != 0 {
		t.Errorf("malformed operators leaked into BadOps=%d / TooLarge=%d", srv.BadOps, srv.TooLarge)
	}
}

// TestOpsScanPagination: a scan drains the whole range through More/Next
// pages under both the row and the byte budget, in sorted key order.
func TestOpsScanPagination(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN1.Options())
	srvEp := cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}
	srv := NewServer(k, srvEp, 11211)
	const n = 50
	for i := 0; i < n; i++ {
		srv.Preload(opsKey(i), opsValue(i))
	}
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}

	var failures []string
	k.Go("client", func(p *sim.Proc) {
		c, err := Dial(p, hostEp, s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		check := func(cond bool, msg string) {
			if !cond {
				failures = append(failures, msg)
			}
		}
		drain := func(maxRows, maxBytes uint32) []nmop.Record {
			var out []nmop.Record
			start := ""
			for pages := 0; pages < 100; pages++ {
				sr, err := c.Scan(p, start, "", maxRows, maxBytes)
				if err != nil {
					panic(err)
				}
				out = append(out, sr.Recs...)
				if !sr.More {
					return out
				}
				start = sr.Next
			}
			failures = append(failures, "scan never finished")
			return out
		}
		// Row-budget pages, byte-budget pages, and one big page must all
		// drain to the same ordered row set.
		byRows := drain(7, 0)
		byBytes := drain(0, 300) // ~2 rows per page
		oneShot := drain(0, 0)
		check(len(oneShot) == n, fmt.Sprintf("one-shot scan rows = %d", len(oneShot)))
		for i, r := range oneShot {
			check(r.Key == opsKey(i) && bytes.Equal(r.Val, opsValue(i)), "scan row out of order or wrong")
		}
		check(bytes.Equal(nmop.AppendRecords(nil, byRows), nmop.AppendRecords(nil, oneShot)), "row-budget drain differs")
		check(bytes.Equal(nmop.AppendRecords(nil, byBytes), nmop.AppendRecords(nil, oneShot)), "byte-budget drain differs")
		// Bounded sub-range.
		sr, err := c.Scan(p, opsKey(10), opsKey(13), 0, 0)
		check(err == nil && len(sr.Recs) == 3 && !sr.More && sr.Recs[0].Key == opsKey(10), "bounded scan wrong")
		// A deleted key falls out of the index.
		okDel, err := c.Delete(p, opsKey(11))
		check(err == nil && okDel, "delete failed")
		sr, err = c.Scan(p, opsKey(10), opsKey(13), 0, 0)
		check(err == nil && len(sr.Recs) == 2 && sr.Recs[1].Key == opsKey(12), "scan saw tombstone")
		c.Close(p)
	})
	k.RunUntil(sim.Time(5 * sim.Second))
	k.Shutdown()
	for _, f := range failures {
		t.Error(f)
	}
	if srv.Scans == 0 || srv.OpRows == 0 {
		t.Errorf("scan counters not bumped: scans=%d rows=%d", srv.Scans, srv.OpRows)
	}
}

// TestOpsCASFetchAdd: CAS and fetch-and-add semantics on the DIMM path —
// success, conflict (current value returned), miss — and the counter
// field accumulating.
func TestOpsCASFetchAdd(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN1.Options())
	srvEp := cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}
	srv := NewServer(k, srvEp, 11211)
	srv.Preload(opsKey(1), opsValue(1))
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}

	var failures []string
	k.Go("client", func(p *sim.Proc) {
		c, err := Dial(p, hostEp, s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		check := func(cond bool, msg string) {
			if !cond {
				failures = append(failures, msg)
			}
		}
		next := opsValue(2)
		swapped, found, cur, err := c.CAS(p, opsKey(1), opsValue(1), next)
		check(err == nil && swapped && found && cur == nil, "matching CAS did not swap")
		swapped, found, cur, err = c.CAS(p, opsKey(1), opsValue(1), opsValue(3))
		check(err == nil && !swapped && found && bytes.Equal(cur, next), "conflicting CAS did not return current value")
		swapped, found, _, err = c.CAS(p, "missing", nil, next)
		check(err == nil && !swapped && !found, "CAS on missing key not a miss")
		nv, found, err := c.FetchAdd(p, opsKey(1), 40)
		check(err == nil && found && nv == 42, fmt.Sprintf("fetch-add = %d, want 42", nv))
		nv, found, err = c.FetchAdd(p, opsKey(1), 8)
		check(err == nil && found && nv == 50, fmt.Sprintf("second fetch-add = %d, want 50", nv))
		_, found, err = c.FetchAdd(p, "missing", 1)
		check(err == nil && !found, "fetch-add on missing key not a miss")
		got, ok, err := c.Get(p, opsKey(1))
		check(err == nil && ok && nmop.ValueCounter(got) == 50 && got[127] == next[127], "fetch-add clobbered the value tail")
		c.Close(p)
	})
	k.RunUntil(sim.Time(5 * sim.Second))
	k.Shutdown()
	for _, f := range failures {
		t.Error(f)
	}
	if srv.CASes != 3 || srv.FAdds != 3 || srv.Conflicts != 1 || srv.Misses != 2 {
		t.Errorf("counters: cas=%d fadd=%d conflict=%d miss=%d", srv.CASes, srv.FAdds, srv.Conflicts, srv.Misses)
	}
}

// TestOpsDifferential is the host-fallback equivalence gate: the same
// seeded operator stream runs once through the on-DIMM path (server A)
// and once through the host fallback (server B, identical preload). Every
// response must be byte-identical after encoding, and the two stores must
// end bit-for-bit equivalent (live keys, bytes, versions).
func TestOpsDifferential(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN3.Options())
	const n = 200
	srvs := make([]*Server, 2)
	for i := range srvs {
		srvs[i] = NewServer(k, cluster.Endpoint{Node: s.Mcns[i].Node, IP: s.Mcns[i].IP}, 11211)
		for j := 0; j < n; j++ {
			srvs[i].Preload(opsKey(j), opsValue(j))
		}
	}
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}

	var failures []string
	k.Go("driver", func(p *sim.Proc) {
		cd, err := Dial(p, hostEp, s.Mcns[0].IP, 11211) // on-DIMM path
		if err != nil {
			panic(err)
		}
		ch, err := Dial(p, hostEp, s.Mcns[1].IP, 11211) // host-fallback path
		if err != nil {
			panic(err)
		}
		check := func(cond bool, msg string) {
			if !cond {
				failures = append(failures, msg)
			}
		}
		// The test's model of current values, so CAS olds can be chosen
		// to hit both the success and the conflict arm deterministically.
		model := make(map[string][]byte, n)
		for j := 0; j < n; j++ {
			model[opsKey(j)] = opsValue(j)
		}
		rng := uint64(0x9e3779b97f4a7c15)
		next := func(mod int) int {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			return int(z % uint64(mod))
		}
		for step := 0; step < 300; step++ {
			switch next(5) {
			case 0: // multi-get, some keys missing
				keys := make([]string, 1+next(8))
				for i := range keys {
					keys[i] = opsKey(next(n + 20))
				}
				rd, err1 := cd.MultiGet(p, keys)
				rh, err2 := ch.MultiGetHost(p, keys)
				check(err1 == nil && err2 == nil, "multi-get errored")
				if err1 == nil && err2 == nil {
					check(bytes.Equal(nmop.AppendMultiGetResult(nil, rd), nmop.AppendMultiGetResult(nil, rh)),
						fmt.Sprintf("step %d: multi-get diverged", step))
				}
			case 1: // scan page (pure data movement: fallback is itself)
				start := opsKey(next(n))
				rows := uint32(1 + next(20))
				rd, err1 := cd.Scan(p, start, "", rows, 0)
				rh, err2 := ch.Scan(p, start, "", rows, 0)
				check(err1 == nil && err2 == nil, "scan errored")
				if err1 == nil && err2 == nil {
					check(bytes.Equal(nmop.AppendScanResult(nil, rd), nmop.AppendScanResult(nil, rh)),
						fmt.Sprintf("step %d: scan diverged", step))
				}
			case 2: // filter+aggregate across selectivities
				start := opsKey(next(n))
				sel := []float64{0.01, 0.10, 0.50, 0.90}[next(4)]
				pred := nmop.PredForSelectivity(uint64(step), sel)
				rm := next(2) == 0
				rd, err1 := cd.FilterAgg(p, start, "", 64, pred, rm)
				rh, err2 := ch.FilterAggHost(p, start, "", 64, pred, rm)
				check(err1 == nil && err2 == nil, "filter errored")
				if err1 == nil && err2 == nil {
					check(bytes.Equal(nmop.AppendFilterResult(nil, rd), nmop.AppendFilterResult(nil, rh)),
						fmt.Sprintf("step %d: filter diverged", step))
				}
			case 3: // CAS: half with the true current value, half stale
				key := opsKey(next(n))
				old := model[key]
				if next(2) == 0 {
					old = opsValue(n + 1) // guaranteed stale
				}
				nv := opsValue(next(n))
				sd, fd, curd, err1 := cd.CAS(p, key, old, nv)
				sh, fh, curh, err2 := ch.CASHost(p, key, old, nv)
				check(err1 == nil && err2 == nil, "CAS errored")
				check(sd == sh && fd == fh && bytes.Equal(curd, curh),
					fmt.Sprintf("step %d: CAS diverged (%v/%v vs %v/%v)", step, sd, fd, sh, fh))
				if sd {
					model[key] = nv
				}
			default: // fetch-add
				key := opsKey(next(n))
				delta := uint64(next(1000))
				nd, fd, err1 := cd.FetchAdd(p, key, delta)
				nh, fh, err2 := ch.FetchAddHost(p, key, delta)
				check(err1 == nil && err2 == nil, "fetch-add errored")
				check(nd == nh && fd == fh, fmt.Sprintf("step %d: fetch-add diverged (%d vs %d)", step, nd, nh))
				if fd {
					upd := append([]byte(nil), model[key]...)
					nmop.PutValueCounter(upd, nd)
					model[key] = upd
				}
			}
		}
		// Cross-check the final stores against the model.
		for j := 0; j < n; j++ {
			gd, okd, _ := cd.Get(p, opsKey(j))
			gh, okh, _ := ch.Get(p, opsKey(j))
			check(okd && okh, "key vanished")
			check(bytes.Equal(gd, model[opsKey(j)]) && bytes.Equal(gh, model[opsKey(j)]),
				fmt.Sprintf("final value of %s diverged from model", opsKey(j)))
		}
		cd.Close(p)
		ch.Close(p)
	})
	k.RunUntil(sim.Time(20 * sim.Second))
	k.Shutdown()
	for _, f := range failures {
		t.Fatal(f)
	}
	if len(srvs[0].index) != len(srvs[1].index) || srvs[0].Bytes() != srvs[1].Bytes() {
		t.Fatalf("stores diverged: len %d/%d bytes %d/%d", len(srvs[0].index), len(srvs[1].index), srvs[0].Bytes(), srvs[1].Bytes())
	}
	vd, vh := srvs[0].Versions(), srvs[1].Versions()
	if len(vd) != len(vh) {
		t.Fatalf("version maps differ in size: %d vs %d", len(vd), len(vh))
	}
	for k2, v := range vd {
		if vh[k2] != v {
			t.Fatalf("version of %s diverged: %+v vs %+v", k2, v, vh[k2])
		}
	}
	if srvs[0].MultiGets == 0 || srvs[0].Scans == 0 || srvs[0].Filters == 0 || srvs[0].CASes == 0 || srvs[0].FAdds == 0 {
		t.Fatal("differential stream did not exercise every operator")
	}
}
