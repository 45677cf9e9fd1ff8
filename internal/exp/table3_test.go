package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTable3Golden pins Table III exactly: every row's raw stage
// durations (ps) and normalized columns. A legitimate change to the
// modelled costs regenerates it with
// `go test ./internal/exp -run Table3Golden -update`.
func TestTable3Golden(t *testing.T) {
	got, err := json.MarshalIndent(Table3().Rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_table3.json")
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
	if !bytes.Equal(got, want) {
		t.Fatalf("Table III diverged from %s:\n%s\nwant:\n%s", path, got, want)
	}
}
