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

// TestCLI runs mcnsim in-process and compares each row's command line,
// exit status, stdout and stderr with testdata/<row>.golden;
// `go test ./cmd/mcnsim -update` regenerates them.
func TestCLI(t *testing.T) {
	for _, r := range []struct {
		name string
		args []string
	}{
		{"config", []string{"config"}},
		{"config-list", []string{"config", "-list"}},
		{"run", []string{"run", "-dimms", "2", "-level", "3", "-workload", "mg", "-scale", "0.02"}},
		{"iperf-host-mcn", []string{"iperf", "-mode", "host-mcn", "-dimms", "2", "-clients", "1", "-duration", "2"}},
		{"iperf-mcn-mcn", []string{"iperf", "-mode", "mcn-mcn", "-dimms", "3", "-clients", "1", "-duration", "2"}},
		{"iperf-eth", []string{"iperf", "-mode", "eth", "-dimms", "2", "-clients", "1", "-duration", "2"}},
		{"ping-host-mcn", []string{"ping", "-mode", "host-mcn", "-count", "1"}},
		{"ping-mcn-mcn", []string{"ping", "-mode", "mcn-mcn", "-count", "1"}},
		{"ping-eth", []string{"ping", "-mode", "eth", "-count", "1"}},
		{"npb-scaleup", []string{"npb", "-system", "scaleup", "-cores", "2", "-scale", "0.02"}},
		{"npb-mcn", []string{"npb", "-system", "mcn", "-dimms", "1", "-scale", "0.02"}},
		{"trace-ping-0", []string{"trace", "-scenario", "ping", "-level", "0"}},
		{"trace-ping-5", []string{"trace", "-scenario", "ping", "-level", "5"}},
		{"trace-tcp-0", []string{"trace", "-scenario", "tcp", "-level", "0"}},
		{"trace-tcp-5", []string{"trace", "-scenario", "tcp", "-level", "5"}},
		{"trace-mpi-0", []string{"trace", "-scenario", "mpi", "-level", "0"}},
		{"trace-mpi-5", []string{"trace", "-scenario", "mpi", "-level", "5"}},
		{"usage", nil},
		{"ping-bad-mode", []string{"ping", "-mode", "nope"}},
		{"ping-help", []string{"ping", "-h"}},
		{"iperf-too-many-clients", []string{"iperf", "-mode", "host-mcn", "-dimms", "2", "-clients", "4"}},
		{"iperf-no-clients", []string{"iperf", "-mode", "mcn-mcn", "-clients", "0"}},
		{"iperf-no-dimms", []string{"iperf", "-mode", "host-mcn", "-dimms", "0", "-clients", "1"}},
		{"npb-no-cores", []string{"npb", "-cores", "0"}},
		{"npb-no-dimms", []string{"npb", "-system", "mcn", "-dimms", "0"}},
		{"run-bad-level", []string{"run", "-level", "9"}},
		{"iperf-bad-level", []string{"iperf", "-level", "9"}},
		{"ping-bad-level", []string{"ping", "-level", "9"}},
		{"npb-bad-level", []string{"npb", "-level", "9"}},
		{"trace-bad-level", []string{"trace", "-level", "-1"}},
		{"run-negative-dimms", []string{"run", "-dimms", "-1"}},
		{"iperf-no-duration", []string{"iperf", "-duration", "0"}},
		{"ping-no-count", []string{"ping", "-count", "0"}},
	} {
		t.Run(r.name, func(t *testing.T) { checkGolden(t, r.name+".golden", invoke(r.args...)) })
	}
}

// TestCLIPcap writes a capture into a temporary directory, shown as $TMP
// in the golden, and pins the pcap bytes too.
func TestCLIPcap(t *testing.T) {
	dir := t.TempDir()
	got := invoke("trace", "-scenario", "tcp", "-o", filepath.Join(dir, "capture.pcap"))
	checkGolden(t, "trace-pcap.golden", bytes.ReplaceAll(got, []byte(dir), []byte("$TMP")))
	pcap, err := os.ReadFile(filepath.Join(dir, "capture.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace-pcap.capture.pcap.golden", pcap)
}

// invoke runs the command and renders what a golden holds.
func invoke(args ...string) []byte {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return fmt.Appendf(nil, "$ %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
		strings.Join(append([]string{"mcnsim"}, args...), " "), code, &stdout, &stderr)
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
		t.Errorf("output differs from %s; got:\n%q", path, got)
	}
}
