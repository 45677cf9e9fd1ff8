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

// TestCLI runs mcn-serve in-process and compares each row's command
// line, exit status, stdout and stderr with testdata/<row>.golden;
// `go test ./cmd/mcn-serve -update` regenerates them. The observed rows
// run a second time writing every observability artifact: the output
// must not change, since tracing never perturbs the simulation, and no
// artifact may be empty.
func TestCLI(t *testing.T) {
	for _, r := range []struct {
		name     string
		args     []string
		observed bool
	}{
		{"mcn5", []string{"-topo", "mcn5", "-rate", "200000"}, false},
		{"repl-json", []string{"-topo", "mcn5+batch+repl", "-rate", "200000", "-json"}, false},
		{"10gbe-closed", []string{"-topo", "10gbe", "-closed", "8", "-json"}, false},
		{"curve", []string{"-curve", "-rates", "200000"}, false},
		{"bench", []string{"-bench", "-rates", "200000"}, false},
		{"admit-json", []string{"-topo", "mcn5+batch+admit", "-rate", "200000", "-json"}, true},
		{"mcnt-json", []string{"-topo", "mcn5+batch+mcnt", "-rate", "200000", "-json"}, true},
		{"bad-topo", []string{"-topo", "bogus"}, false},
		{"bad-rates", []string{"-rates", "1,x"}, false},
		{"check-missing", []string{"-check", "nope.json"}, false},
		{"help", []string{"-h"}, false},
		{"rate-zero", []string{"-rate", "0"}, false},
		{"rate-negative", []string{"-rate", "-5"}, false},
		{"curve-rate-zero", []string{"-curve", "-rates", "0"}, false},
	} {
		t.Run(r.name, func(t *testing.T) {
			got := invoke(r.args...)
			checkGolden(t, r.name+".golden", got)
			if !r.observed {
				return
			}
			dir := t.TempDir()
			artifacts := []string{"trace.json", "metrics.json", "timeline.json"}
			args := append([]string{}, r.args...)
			for i, name := range []string{"-trace", "-metrics", "-timeline"} {
				args = append(args, name, filepath.Join(dir, artifacts[i]))
			}
			// Compare everything below the command line.
			_, plain, _ := bytes.Cut(got, []byte("\n"))
			if _, observed, _ := bytes.Cut(invoke(args...), []byte("\n")); !bytes.Equal(observed, plain) {
				t.Errorf("observed run differs from the plain one; got:\n%s", observed)
			}
			for _, a := range artifacts {
				if st, err := os.Stat(filepath.Join(dir, a)); err != nil || st.Size() == 0 {
					t.Errorf("%s: missing or empty (%v)", a, err)
				}
			}
		})
	}
}

// invoke runs the command and renders what a golden holds.
func invoke(args ...string) []byte {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return fmt.Appendf(nil, "$ %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
		strings.Join(append([]string{"mcn-serve"}, args...), " "), code, &stdout, &stderr)
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
