package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCLI runs mcn-experiments in-process and compares each row's
// command line, exit status, stdout and stderr with
// testdata/<row>.golden; `go test ./cmd/mcn-experiments -update`
// regenerates them. Fig. 8 and Table III are left to internal/exp's
// figure goldens, and the full serving sweeps to BENCH_serve.json.
func TestCLI(t *testing.T) {
	for _, r := range []struct {
		name string
		args []string
	}{
		{"faults", []string{"-fig", "faults", "-seed", "42"}},
		{"serve-ops", []string{"-fig", "serve-ops"}},
		{"serve-timeline", []string{"-fig", "serve-timeline"}},
		{"serve-admit", []string{"-fig", "serve-admit"}},
		{"serve-repl", []string{"-fig", "serve-repl"}},
		{"serve-attrib", []string{"-fig", "serve-attrib"}},
		{"serve-faults-mcnt", []string{"-fig", "serve-faults:mcn5+batch+mcnt"}},
		{"serve-ops-faults", []string{"-fig", "serve-ops-faults"}},
		{"fig9", []string{"-fig", "9", "-scale", "0.02", "-workloads", "mg"}},
		{"fig10", []string{"-fig", "10", "-scale", "0.02", "-workloads", "mg"}},
		{"fig11", []string{"-fig", "11", "-scale", "0.02", "-workloads", "mg"}},
		{"discussion", []string{"-discussion"}},
		{"usage", nil},
		{"unknown-fig", []string{"-fig", "nope"}},
		{"bad-topo", []string{"-fig", "serve-faults:bogus"}},
		{"help", []string{"-h"}},
		{"fig9-bad-workload", []string{"-fig", "9", "-workloads", "nope"}},
		{"fig11-negative-scale", []string{"-fig", "11", "-scale", "-1", "-workloads", "mg"}},
	} {
		t.Run(r.name, func(t *testing.T) { checkGolden(t, r.name+".golden", invoke(r.args...)) })
	}
}

// invoke runs the command and renders what a golden holds.
func invoke(args ...string) []byte {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return fmt.Appendf(nil, "$ %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
		strings.Join(append([]string{"mcn-experiments"}, args...), " "), code, &stdout, &stderr)
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s; got:\n%s", path, got)
	}
}
