package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got, a JSON encoding and its error, with
// testdata/name, rewriting the file first under -update. Callers encode
// their concrete value themselves, so TestFieldsHaveReaders sees which
// fields the golden reads.
func checkGolden(t *testing.T, name string, got []byte, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Name the first differing line; the golden file gives its context.
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return strings.TrimSpace(lines[i])
		}
		return "(end of file)"
	}
	t.Fatalf("diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, at(g), at(w))
}

// TestTable3Golden pins Table III exactly: every row's raw stage
// durations (ps) and normalized columns. A legitimate change to the
// modelled costs regenerates it with
// `go test ./internal/exp -run Table3Golden -update`.
func TestTable3Golden(t *testing.T) {
	got, err := json.MarshalIndent(table3().Rows, "", "  ")
	checkGolden(t, "golden_table3.json", got, err)
}

// TestFigureGolden pins Fig. 8(a-c), 9, 10, 11, the headline and the
// Sec. VII discussion exactly, each as its generator returns it at the
// shape tests' scales (JSON keeps every float64 bit). A legitimate model
// change regenerates it with
// `go test ./internal/exp -run FigureGolden -update`.
func TestFigureGolden(t *testing.T) {
	got, err := json.MarshalIndent(struct {
		Fig8a      *Fig8aResult
		Fig8b      *Fig8Latency
		Fig8c      *Fig8Latency
		Fig9       *Fig9Result
		Fig10      *Fig10Result
		Fig11      *Fig11Result
		Headline   *HeadlineResult
		Discussion *DiscussionResult
	}{fig8a(), fig8b(), fig8c(), fig9(), fig10(), fig11(), headline(), discussion()}, "", "  ")
	checkGolden(t, "golden_figures.json", got, err)
}

// TestServeBatchGolden pins the batching off/on A/B's report at one
// offered load.
func TestServeBatchGolden(t *testing.T) {
	checkGolden(t, "golden_serve_batch.txt", []byte(ServeBatch(42, []float64{200e3}).String()), nil)
}
