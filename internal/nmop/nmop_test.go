package nmop

import (
	"fmt"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindMultiGet: "multiget",
		KindScan:     "scan",
		KindFilter:   "filter",
		KindCAS:      "cas",
		KindFetchAdd: "fetchadd",
		Kind(99):     "kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestPredSelectivity(t *testing.T) {
	for _, frac := range []float64{0.01, 0.10, 0.50, 0.90} {
		pr := PredForSelectivity(7, frac)
		if got := pr.Selectivity(); got < frac-1e-6 || got > frac+1e-6 {
			t.Fatalf("PredForSelectivity(%v).Selectivity() = %v", frac, got)
		}
		matched := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if pr.Match(fmt.Sprintf("key-%08d", i)) {
				matched++
			}
		}
		got := float64(matched) / n
		if got < frac*0.85-0.005 || got > frac*1.15+0.005 {
			t.Errorf("empirical selectivity %v for requested %v", got, frac)
		}
	}
	// Clamping and degenerate predicates.
	if got := PredForSelectivity(1, -2).Selectivity(); got != 0 {
		t.Errorf("negative frac selectivity = %v", got)
	}
	if got := PredForSelectivity(1, 2).Selectivity(); got != 1 {
		t.Errorf("overshoot frac selectivity = %v", got)
	}
	zero := Pred{}
	if zero.Match("x") || zero.Selectivity() != 0 {
		t.Error("zero-Mod predicate must match nothing")
	}
	// Determinism and seed sensitivity.
	a, b := PredForSelectivity(3, 0.5), PredForSelectivity(4, 0.5)
	diff := false
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%08d", i)
		if a.Match(k) != a.Match(k) {
			t.Fatal("Match not deterministic")
		}
		if a.Match(k) != b.Match(k) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds never disagreed over 100 keys")
	}
}

func TestPredRoundtrip(t *testing.T) {
	pr := Pred{Seed: 0xdeadbeefcafe, Mod: 1000, Thresh: 137}
	got, ok := ParsePred(AppendPred(nil, pr))
	if !ok || got != pr {
		t.Fatalf("ParsePred roundtrip = %+v, %v", got, ok)
	}
	if _, ok := ParsePred(make([]byte, PredBytes-1)); ok {
		t.Error("short predicate parsed")
	}
}

func TestParseMultiGet(t *testing.T) {
	keys := []string{"a", "key-00000042", ""}
	r, err := ParseOpRequest(KindMultiGet, "", AppendMultiGetPayload(nil, keys))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Keys) != 3 || r.Keys[1] != "key-00000042" || r.Keys[2] != "" {
		t.Fatalf("keys = %q", r.Keys)
	}
	if _, err := ParseOpRequest(KindMultiGet, "", AppendMultiGetPayload(nil, nil)); err != ErrZeroKeys {
		t.Errorf("zero keys: err = %v", err)
	}
	many := make([]string, MaxMultiGetKeys+1)
	if _, err := ParseOpRequest(KindMultiGet, "", AppendMultiGetPayload(nil, many)); err != ErrTooManyKeys {
		t.Errorf("too many keys: err = %v", err)
	}
	for _, p := range [][]byte{nil, {1}, {1, 0}, {1, 0, 2, 0, 'x'}} {
		if _, err := ParseOpRequest(KindMultiGet, "", p); err != ErrMalformed {
			t.Errorf("payload %v: err = %v", p, err)
		}
	}
	trailing := append(AppendMultiGetPayload(nil, keys), 0xff)
	if _, err := ParseOpRequest(KindMultiGet, "", trailing); err != ErrMalformed {
		t.Errorf("trailing bytes: err = %v", err)
	}
}

func TestParseScan(t *testing.T) {
	r, err := ParseOpRequest(KindScan, "key-0001", AppendScanPayload(nil, "key-0009", 100, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != "key-0001" || r.End != "key-0009" || r.MaxRows != 100 || r.MaxBytes != 4096 {
		t.Fatalf("req = %+v", r)
	}
	// Unbounded end, zero limits clamp to defaults.
	r, err = ParseOpRequest(KindScan, "", AppendScanPayload(nil, "", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.End != "" || r.MaxRows != MaxScanRows || r.MaxBytes != DefaultScanRespBytes {
		t.Fatalf("clamped req = %+v", r)
	}
	if r, _ := ParseOpRequest(KindScan, "", AppendScanPayload(nil, "x", MaxScanRows+9, DefaultScanRespBytes+9)); r.MaxRows != MaxScanRows || r.MaxBytes != DefaultScanRespBytes {
		t.Fatalf("overshoot limits not clamped: %+v", r)
	}
	// Inverted and empty ranges.
	if _, err := ParseOpRequest(KindScan, "key-0009", AppendScanPayload(nil, "key-0001", 1, 0)); err != ErrBadRange {
		t.Errorf("inverted range: err = %v", err)
	}
	if _, err := ParseOpRequest(KindScan, "same", AppendScanPayload(nil, "same", 1, 0)); err != ErrBadRange {
		t.Errorf("empty range: err = %v", err)
	}
	for _, p := range [][]byte{nil, {5, 0}, {1, 0, 'z', 1}, {0, 0, 1, 0, 0, 0, 1, 0, 0}} {
		if _, err := ParseOpRequest(KindScan, "", p); err != ErrMalformed {
			t.Errorf("payload %v: err = %v", p, err)
		}
	}
}

func TestParseFilter(t *testing.T) {
	pred := AppendPred(nil, PredForSelectivity(7, 0.1))
	r, err := ParseOpRequest(KindFilter, "a", AppendFilterPayload(nil, "z", 512, pred, true))
	if err != nil {
		t.Fatal(err)
	}
	if !r.ReturnMatches || r.Pred.Selectivity() < 0.09 || r.MaxRows != 512 {
		t.Fatalf("req = %+v", r)
	}
	r, err = ParseOpRequest(KindFilter, "a", AppendFilterPayload(nil, "z", 512, pred, false))
	if err != nil || r.ReturnMatches {
		t.Fatalf("returnMatches=false: %+v, %v", r, err)
	}
	// Oversized predicate is its own rejection, distinct from a merely
	// misshapen one.
	if _, err := ParseOpRequest(KindFilter, "a", AppendFilterPayload(nil, "z", 1, make([]byte, MaxPredBytes+1), false)); err != ErrPredTooBig {
		t.Errorf("oversized pred: err = %v", err)
	}
	if _, err := ParseOpRequest(KindFilter, "a", AppendFilterPayload(nil, "z", 1, make([]byte, PredBytes-2), false)); err != ErrBadPred {
		t.Errorf("short pred: err = %v", err)
	}
	if _, err := ParseOpRequest(KindFilter, "a", AppendFilterPayload(nil, "z", 1, AppendPred(nil, Pred{Mod: 0}), false)); err != ErrBadPred {
		t.Errorf("zero-Mod pred: err = %v", err)
	}
	if _, err := ParseOpRequest(KindFilter, "a", AppendFilterPayload(nil, "z", 1, AppendPred(nil, Pred{Mod: 10, Thresh: 11}), false)); err != ErrBadPred {
		t.Errorf("Thresh>Mod pred: err = %v", err)
	}
	if _, err := ParseOpRequest(KindFilter, "z", AppendFilterPayload(nil, "a", 1, pred, false)); err != ErrBadRange {
		t.Errorf("inverted filter range: err = %v", err)
	}
	trunc := AppendFilterPayload(nil, "z", 1, pred, false)
	if _, err := ParseOpRequest(KindFilter, "a", trunc[:len(trunc)-1]); err != ErrMalformed {
		t.Errorf("truncated filter: err = %v", err)
	}
	if _, err := ParseOpRequest(KindFilter, "a", append(trunc, 0)); err != ErrMalformed {
		t.Errorf("trailing filter bytes: err = %v", err)
	}
}

func TestParseCASFetchAdd(t *testing.T) {
	r, err := ParseOpRequest(KindCAS, "k", AppendCASPayload(nil, []byte("old"), []byte("newer")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != "k" || string(r.Old) != "old" || string(r.New) != "newer" {
		t.Fatalf("cas req = %+v", r)
	}
	if r, err := ParseOpRequest(KindCAS, "k", AppendCASPayload(nil, nil, nil)); err != nil || len(r.Old) != 0 || len(r.New) != 0 {
		t.Fatalf("empty cas: %+v, %v", r, err)
	}
	for _, p := range [][]byte{nil, {9, 0, 0, 0}, {0, 0, 0, 0, 9, 0, 0, 0, 'x'}, {0, 0, 0, 0}} {
		if _, err := ParseOpRequest(KindCAS, "k", p); err != ErrMalformed {
			t.Errorf("cas payload %v: err = %v", p, err)
		}
	}
	r, err = ParseOpRequest(KindFetchAdd, "k", AppendFetchAddPayload(nil, 41))
	if err != nil || r.Delta != 41 {
		t.Fatalf("fetchadd: %+v, %v", r, err)
	}
	if _, err := ParseOpRequest(KindFetchAdd, "k", []byte{1, 2, 3}); err != ErrMalformed {
		t.Errorf("short fetchadd: err = %v", err)
	}
	if _, err := ParseOpRequest(Kind(0), "k", nil); err != ErrBadKind {
		t.Errorf("bad kind: err = %v", err)
	}
}

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{{Key: "a", Val: []byte{1, 2}}, {Key: "bb", Val: nil}}
	got, rest, ok := ParseRecords(AppendRecords(nil, recs))
	if !ok || len(rest) != 0 || len(got) != 2 || got[0].Key != "a" || string(got[0].Val) != "\x01\x02" || got[1].Key != "bb" || len(got[1].Val) != 0 {
		t.Fatalf("records roundtrip = %+v, %v, %v", got, rest, ok)
	}
	for _, p := range [][]byte{nil, {1, 0}, {1, 0, 1, 0, 'a', 9, 0, 0, 0}} {
		if _, _, ok := ParseRecords(p); ok {
			t.Errorf("malformed records %v parsed", p)
		}
	}
}

func TestMultiGetResultRoundtrip(t *testing.T) {
	res := &MultiGetResult{Found: []bool{true, false, true}, Vals: [][]byte{{7}, nil, {}}}
	got, ok := ParseMultiGetResult(AppendMultiGetResult(nil, res))
	if !ok || len(got.Found) != 3 || !got.Found[0] || got.Found[1] || string(got.Vals[0]) != "\x07" {
		t.Fatalf("multiget result roundtrip = %+v, %v", got, ok)
	}
	for _, p := range [][]byte{nil, {1, 0}, {1, 0, 1, 9, 0, 0, 0}} {
		if _, ok := ParseMultiGetResult(p); ok {
			t.Errorf("malformed multiget result %v parsed", p)
		}
	}
}

func TestScanResultRoundtrip(t *testing.T) {
	res := &ScanResult{More: true, Next: "key-0042", Recs: []Record{{Key: "key-0041", Val: []byte("v")}}}
	got, ok := ParseScanResult(AppendScanResult(nil, res))
	if !ok || !got.More || got.Next != "key-0042" || len(got.Recs) != 1 {
		t.Fatalf("scan result roundtrip = %+v, %v", got, ok)
	}
	empty, ok := ParseScanResult(AppendScanResult(nil, &ScanResult{}))
	if !ok || empty.More || empty.Next != "" || len(empty.Recs) != 0 {
		t.Fatalf("empty scan result = %+v, %v", empty, ok)
	}
	for _, p := range [][]byte{nil, {1, 5, 0}, append(AppendScanResult(nil, &ScanResult{}), 9)} {
		if _, ok := ParseScanResult(p); ok {
			t.Errorf("malformed scan result %v parsed", p)
		}
	}
}

func TestFilterResultRoundtrip(t *testing.T) {
	res := &FilterResult{
		Agg:  Agg{Scanned: 512, Matched: 51, Sum: 1000, Min: 3, Max: 99},
		More: true,
		Next: "key-0512",
		Recs: []Record{{Key: "key-0001", Val: []byte("x")}},
	}
	enc := AppendFilterResult(nil, res)
	got, ok := ParseFilterResult(enc)
	if !ok || got.Agg != res.Agg || !got.More || got.Next != res.Next || len(got.Recs) != 1 {
		t.Fatalf("filter result roundtrip = %+v, %v", got, ok)
	}
	// The aggregate-only page is exactly header + empty next + empty
	// record section — the constant the bytes-over-channel win rests on.
	lean := AppendFilterResult(nil, &FilterResult{Agg: res.Agg})
	if len(lean) != FilterAggHdrBytes+2+2 {
		t.Fatalf("aggregate-only page = %d bytes", len(lean))
	}
	for _, p := range [][]byte{nil, enc[:FilterAggHdrBytes+1], append(AppendFilterResult(nil, &FilterResult{}), 1)} {
		if _, ok := ParseFilterResult(p); ok {
			t.Errorf("malformed filter result (%d bytes) parsed", len(p))
		}
	}
}

func TestAggObserve(t *testing.T) {
	var a Agg
	vals := []uint64{10, 3, 99}
	buf := make([]byte, 128)
	for i, v := range vals {
		PutValueCounter(buf, v)
		a.Observe(buf, true)
		a.Observe(buf, false)
		if a.Scanned != uint64(2*(i+1)) {
			t.Fatalf("scanned = %d", a.Scanned)
		}
	}
	if a.Matched != 3 || a.Sum != 112 || a.Min != 3 || a.Max != 99 {
		t.Fatalf("agg = %+v", a)
	}
	var none Agg
	none.Observe(buf, false)
	if none.Matched != 0 || none.Min != 0 || none.Max != 0 {
		t.Fatalf("no-match agg = %+v", none)
	}
}

func TestValueCounter(t *testing.T) {
	if ValueCounter(nil) != 0 {
		t.Error("nil counter != 0")
	}
	short := []byte{0x2a}
	if ValueCounter(short) != 0x2a {
		t.Error("short counter")
	}
	PutValueCounter(short, 0x0107)
	if short[0] != 0x07 {
		t.Errorf("short put = %v", short)
	}
	buf := make([]byte, 16)
	PutValueCounter(buf, 1<<40+9)
	if ValueCounter(buf) != 1<<40+9 {
		t.Error("counter roundtrip")
	}
}

func TestDecideFilter(t *testing.T) {
	m := DefaultCostModel()
	// With 128 B rows the crossover sits near 64% selectivity: offload
	// at the low end, host at the high end — the acceptance criterion's
	// two ends of the sweep.
	if !m.DecideFilter(ModeAuto, 512, 128, 0.10) {
		t.Error("auto did not offload a 10% filter")
	}
	if m.DecideFilter(ModeAuto, 512, 128, 0.90) {
		t.Error("auto offloaded a 90% filter")
	}
	if m.DecideFilter(ModeHost, 512, 128, 0.01) || !m.DecideFilter(ModeDimm, 512, 128, 0.99) {
		t.Error("forced modes not respected")
	}
	// Robust across the whole calibration clamp band.
	for _, ns := range []float64{minChannelNsPerByte, maxChannelNsPerByte} {
		mm := m
		mm.Calibrate(ns)
		if !mm.DecideFilter(ModeAuto, 512, 128, 0.10) {
			t.Errorf("at %v ns/B: 10%% filter stayed host-side", ns)
		}
		if mm.DecideFilter(ModeAuto, 512, 128, 0.90) {
			t.Errorf("at %v ns/B: 90%% filter offloaded", ns)
		}
	}
	if m.DecideFilter(ModeAuto, 512, 128, -1) != m.DecideFilter(ModeAuto, 512, 128, 0) {
		t.Error("selectivity not clamped low")
	}
	if m.DecideFilter(ModeAuto, 512, 128, 2) != m.DecideFilter(ModeAuto, 512, 128, 1) {
		t.Error("selectivity not clamped high")
	}
}

func TestDecideMultiGetRMW(t *testing.T) {
	m := DefaultCostModel()
	if !m.DecideMultiGet(ModeAuto, 8, 12, 128) {
		t.Error("auto did not offload an 8-key multi-get")
	}
	if m.DecideMultiGet(ModeAuto, 1, 12, 128) {
		t.Error("single-key multi-get offloaded")
	}
	if m.DecideMultiGet(ModeHost, 8, 12, 128) || !m.DecideMultiGet(ModeDimm, 1, 12, 128) {
		t.Error("forced multi-get modes not respected")
	}
	if !m.DecideRMW(ModeAuto, 128) {
		t.Error("auto did not offload RMW")
	}
	if m.DecideRMW(ModeHost, 128) || !m.DecideRMW(ModeDimm, 128) {
		t.Error("forced RMW modes not respected")
	}
}

func TestCalibrateObserve(t *testing.T) {
	m := DefaultCostModel()
	m.Calibrate(10)
	if m.ChannelNsPerByte != maxChannelNsPerByte {
		t.Errorf("calibrate did not clamp high: %v", m.ChannelNsPerByte)
	}
	m.Calibrate(0)
	if m.ChannelNsPerByte != minChannelNsPerByte {
		t.Errorf("calibrate did not clamp low: %v", m.ChannelNsPerByte)
	}
	m.Calibrate(0.12)
	if m.ChannelNsPerByte != 0.12 {
		t.Errorf("calibrate in band = %v, want 0.12", m.ChannelNsPerByte)
	}
}

func TestModeString(t *testing.T) {
	if ModeAuto.String() != "auto" || ModeHost.String() != "host" || ModeDimm.String() != "dimm" {
		t.Error("mode strings")
	}
	if !strings.HasPrefix(Mode(9).String(), "mode(") {
		t.Error("unknown mode string")
	}
}

// Selectivity returns the predicate's expected match fraction.
func (pr Pred) Selectivity() float64 {
	if pr.Mod == 0 {
		return 0
	}
	return float64(pr.Thresh) / float64(pr.Mod)
}
