// Command mcnsim is the general entry point: print the simulated system
// configuration (Tables I/II), run a one-off scenario combining an MCN
// server, a workload and an optimization level, or drive one of the
// paper's measurement tools.
//
// Usage:
//
//	mcnsim config                           # Table II + Table I
//	mcnsim config -list                     # the workload suite
//	mcnsim run -dimms 4 -level 5 -workload sort -scale 0.1
//	mcnsim iperf -mode host-mcn -level 3 -dimms 8 -clients 4
//	mcnsim iperf -mode mcn-mcn  -level 5
//	mcnsim iperf -mode eth      -clients 4
//	mcnsim ping -mode host-mcn -level 0
//	mcnsim ping -mode mcn-mcn  -level 5
//	mcnsim ping -mode eth
//	mcnsim npb -kernel mg -system scaleup -cores 8
//	mcnsim npb -kernel mg -system mcn -dimms 2 -level 3
//	mcnsim trace -scenario ping                 # print the capture
//	mcnsim trace -scenario tcp -o capture.pcap  # write a pcap file
//
// iperf measures TCP bandwidth over the MCN server or a 10GbE cluster with
// the paper's iperf methodology (one server, several clients); ping
// measures round-trip latency (Fig. 8(b)/(c)); npb runs one NPB-like
// kernel on a scale-up or MCN-enabled server (Fig. 11) and reports the
// execution time and aggregate DRAM traffic; trace runs a small MCN
// scenario with a packet capture attached and prints the tcpdump-style
// rendering or writes a libpcap file readable by Wireshark/tcpdump.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/energy"
	"github.com/mcn-arch/mcn/internal/mpi"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/workloads"
)

// command is one sub-command: it parses args, prints to stdout and
// stderr, and returns the exit status.
type command func(args []string, stdout, stderr io.Writer) int

var commands = map[string]command{
	"config": config,
	"run":    runWorkload,
	"iperf":  iperf,
	"ping":   ping,
	"npb":    npb,
	"trace":  trace,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args[0] to its sub-command and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 || commands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: mcnsim config|run|iperf|ping|npb|trace [flags]  (-h on a sub-command lists its flags)")
		return 2
	}
	return commands[args[0]](args[1:], stdout, stderr)
}

// flags returns a sub-command's flag set, reporting to stderr.
func flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs; when it returns false, code is the exit
// status: 0 after -h, 2 after a bad flag.
func parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	return 0, true
}

// fail prints msg to stderr and returns the exit status code.
func fail(stderr io.Writer, code int, format string, a ...any) int {
	fmt.Fprintf(stderr, format+"\n", a...)
	return code
}

// options returns the Table I options of optimization level level; it
// prints the accepted range and returns false when there is no such level.
func options(level int, stderr io.Writer) (core.Options, bool) {
	if level < int(core.MCN0) || level > int(core.MCN5) {
		fmt.Fprintf(stderr, "-level %d: want %d..%d\n", level, core.MCN0, core.MCN5)
		return core.Options{}, false
	}
	return core.OptLevel(level).Options(), true
}

// finish steps k until the MPI job ends: at mcn0 the HR-timer polling
// never idles, so one long RunFor would simulate the whole cap. It
// reports whether the job ended within 600 simulated seconds.
func finish(k *sim.Kernel, w *mpi.World) bool {
	for end := k.Now().Add(600 * sim.Second); !w.Done() && k.Now() < end; {
		k.RunFor(sim.Millisecond)
	}
	return w.Done()
}

func config(args []string, stdout, stderr io.Writer) int {
	fs := flags("config", stderr)
	list := fs.Bool("list", false, "list available workloads")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	if *list {
		for _, n := range workloads.SuiteNames {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	h := node.HostConfig("host")
	m := node.McnConfig("mcn")
	fmt.Fprintln(stdout, "System configuration (Table II):")
	fmt.Fprintf(stdout, "  host: %d cores @ %.2f GHz, %d x %s memory channels\n",
		h.Cores, h.FreqHz/1e9, h.Channels, h.DRAM.Name)
	fmt.Fprintf(stdout, "  MCN:  %d cores @ %.2f GHz, %d x %s private channel\n",
		m.Cores, m.FreqHz/1e9, m.Channels, m.DRAM.Name)
	fmt.Fprintf(stdout, "  network: 10GbE, 1us link latency; MCN SRAM buffer: 96KB\n")
	fmt.Fprintf(stdout, "  optimization levels (Table I):\n")
	for _, l := range core.Levels() {
		o := l.Options()
		fmt.Fprintf(stdout, "    %v: interrupt=%v csum-bypass=%v mtu=%d tso=%v dma=%v\n",
			l, o.DimmInterrupt, o.ChecksumBypass, o.MTU, o.TSO, o.DMA)
	}
	return 0
}

func runWorkload(args []string, stdout, stderr io.Writer) int {
	fs := flags("run", stderr)
	dimms := fs.Int("dimms", 4, "MCN DIMM count")
	level := fs.Int("level", 3, "optimization level 0..5")
	workload := fs.String("workload", "mg", "workload name (see mcnsim config -list)")
	scale := fs.Float64("scale", 0.1, "working-set multiplier")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	opts, ok := options(*level, stderr)
	if !ok {
		return 2
	}
	if *dimms < 0 {
		return fail(stderr, 2, "-dimms %d: want >= 0", *dimms)
	}
	fn, ok := workloads.Suite[*workload]
	if !ok {
		return fail(stderr, 2, "unknown workload %q (try mcnsim config -list)", *workload)
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	s := cluster.NewMcnServer(k, *dimms, opts)
	eps := s.Endpoints()
	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) { fn(r, *scale) })
	if !finish(k, w) {
		return fail(stderr, 1, "job did not finish within 600 simulated seconds")
	}
	el := w.Elapsed()
	cpu := s.Host.CPU
	fmt.Fprintf(stdout, "workload=%s dimms=%d level=mcn%d ranks=%d\n", *workload, *dimms, *level, len(eps))
	fmt.Fprintf(stdout, "execution time:       %v\n", el)
	fmt.Fprintf(stdout, "aggregate DRAM:       %.2f GB/s (%.1f MB moved)\n",
		float64(s.TotalDRAMBytes())/el.Seconds()/1e9, float64(s.TotalDRAMBytes())/1e6)
	fmt.Fprintf(stdout, "host CPU utilization: %.1f%%\n", cpu.Busy.Busy.Seconds()/(el.Seconds()*float64(cpu.NumCores()))*100)
	fmt.Fprintf(stdout, "energy:               %.2f J\n", energy.Default().McnServerEnergy(s, el))
	return 0
}

func iperf(args []string, stdout, stderr io.Writer) int {
	fs := flags("iperf", stderr)
	mode := fs.String("mode", "host-mcn", "host-mcn | mcn-mcn | eth")
	level := fs.Int("level", 0, "MCN optimization level 0..5 (Table I)")
	dimms := fs.Int("dimms", 8, "number of MCN DIMMs")
	clients := fs.Int("clients", 4, "number of iperf clients")
	durMs := fs.Int("duration", 18, "measurement window (simulated ms)")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	opts, ok := options(*level, stderr)
	if !ok {
		return 2
	}
	// Each client runs on its own node: a DIMM, or a 10GbE cluster node.
	if *mode != "eth" && *dimms < 1 {
		return fail(stderr, 2, "-dimms %d: want >= 1", *dimms)
	}
	if *clients < 1 {
		return fail(stderr, 2, "-clients %d: want >= 1", *clients)
	}
	if *mode != "eth" && *clients > *dimms {
		return fail(stderr, 2, "-clients %d: want 1..%d, one per DIMM", *clients, *dimms)
	}
	if *durMs < 1 {
		return fail(stderr, 2, "-duration %d: want >= 1", *durMs)
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	warm := 6 * sim.Millisecond
	dur := sim.Duration(*durMs) * sim.Millisecond

	var res *workloads.IperfResult
	switch *mode {
	case "host-mcn":
		s := cluster.NewMcnServer(k, *dimms, opts)
		server := s.Endpoints()[0]
		res = workloads.Iperf(k, server, s.McnEndpoints()[:*clients], 5201, warm, dur)
	case "mcn-mcn":
		s := cluster.NewMcnServer(k, *dimms, opts)
		eps := s.Endpoints()
		server := eps[1] // first MCN node
		cl := []cluster.Endpoint{eps[0]}
		cl = append(cl, eps[2:2+*clients-1]...)
		res = workloads.Iperf(k, server, cl, 5201, warm, dur)
	case "eth":
		c := cluster.NewEthCluster(k, *clients+1, node.HostConfig(""))
		eps := c.Endpoints()
		res = workloads.Iperf(k, eps[0], eps[1:], 5201, warm, dur)
	default:
		return fail(stderr, 2, "unknown mode %q", *mode)
	}
	k.RunFor(warm + dur + 10*sim.Millisecond)

	fmt.Fprintf(stdout, "mode=%s level=mcn%d clients=%d\n", *mode, *level, *clients)
	fmt.Fprintf(stdout, "aggregate goodput: %8.2f Gbps\n", res.GoodputBps*8/1e9)
	for i, pc := range res.PerClient {
		fmt.Fprintf(stdout, "  client %d:        %8.2f Gbps\n", i, pc*8/1e9)
	}
	return 0
}

func ping(args []string, stdout, stderr io.Writer) int {
	fs := flags("ping", stderr)
	mode := fs.String("mode", "host-mcn", "host-mcn | mcn-mcn | eth")
	level := fs.Int("level", 0, "MCN optimization level 0..5")
	count := fs.Int("count", 5, "pings per payload size")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	opts, ok := options(*level, stderr)
	if !ok {
		return 2
	}
	if *count < 1 {
		return fail(stderr, 2, "-count %d: want >= 1", *count)
	}
	sizes := []int{16, 256, 1024, 4096, 8192}
	k := sim.NewKernel()
	defer k.Shutdown()

	var from cluster.Endpoint
	var to netstack.IP
	switch *mode {
	case "host-mcn":
		s := cluster.NewMcnServer(k, 2, opts)
		from, to = s.Endpoints()[0], s.McnEndpoints()[0].IP
	case "mcn-mcn":
		s := cluster.NewMcnServer(k, 2, opts)
		from, to = s.McnEndpoints()[0], s.McnEndpoints()[1].IP
	case "eth":
		c := cluster.NewEthCluster(k, 2, node.HostConfig(""))
		eps := c.Endpoints()
		from, to = eps[0], eps[1].IP
	default:
		return fail(stderr, 2, "unknown mode %q", *mode)
	}
	res := workloads.PingSweep(k, from, to, sizes, *count)
	k.RunFor(sim.Second)

	fmt.Fprintf(stdout, "mode=%s level=mcn%d\n", *mode, *level)
	fmt.Fprintf(stdout, "%8s %12s\n", "payload", "avg RTT")
	for _, s := range sizes {
		fmt.Fprintf(stdout, "%7dB %12v\n", s, res[s])
	}
	return 0
}

func npb(args []string, stdout, stderr io.Writer) int {
	fs := flags("npb", stderr)
	kernel := fs.String("kernel", "mg", "cg|ep|ft|is|lu|mg (or any suite workload)")
	system := fs.String("system", "scaleup", "scaleup | mcn")
	cores := fs.Int("cores", 8, "scale-up core count (ranks = cores)")
	dimms := fs.Int("dimms", 2, "MCN DIMM count (mcn system)")
	level := fs.Int("level", 3, "MCN optimization level")
	scale := fs.Float64("scale", 0.1, "working-set multiplier")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	opts, ok := options(*level, stderr)
	if !ok {
		return 2
	}
	fn, ok := workloads.Suite[*kernel]
	if !ok {
		return fail(stderr, 2, "unknown kernel %q", *kernel)
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	var eps []cluster.Endpoint
	var dramBytes func() int64
	switch *system {
	case "scaleup":
		if *cores < 1 {
			return fail(stderr, 2, "-cores %d: want >= 1", *cores)
		}
		h := cluster.NewScaleUp(k, *cores)
		lo := netstack.IP{127, 0, 0, 1}
		for i := 0; i < *cores; i++ {
			eps = append(eps, cluster.Endpoint{Node: h.Node, IP: lo})
		}
		dramBytes = h.TotalDRAMBytes
	case "mcn":
		if *dimms < 1 {
			return fail(stderr, 2, "-dimms %d: want >= 1", *dimms)
		}
		s := cluster.NewMcnServer(k, *dimms, opts)
		hostEp := s.Endpoints()[0]
		for i := 0; i < 4; i++ {
			eps = append(eps, hostEp)
		}
		for _, m := range s.McnEndpoints() {
			for i := 0; i < 4; i++ {
				eps = append(eps, m)
			}
		}
		dramBytes = s.TotalDRAMBytes
	default:
		return fail(stderr, 2, "unknown system %q", *system)
	}

	w := mpi.Launch(k, eps, 7000, func(r *mpi.Rank) { fn(r, *scale) })
	if !finish(k, w) {
		return fail(stderr, 1, "job did not finish within 600 simulated seconds")
	}
	el := w.Elapsed()
	fmt.Fprintf(stdout, "kernel=%s system=%s ranks=%d\n", *kernel, *system, len(eps))
	fmt.Fprintf(stdout, "execution time:        %v\n", el)
	fmt.Fprintf(stdout, "aggregate DRAM moved:  %.1f MB\n", float64(dramBytes())/1e6)
	fmt.Fprintf(stdout, "aggregate DRAM rate:   %.2f GB/s\n", float64(dramBytes())/el.Seconds()/1e9)
	return 0
}

func trace(args []string, stdout, stderr io.Writer) int {
	fs := flags("trace", stderr)
	scenario := fs.String("scenario", "ping", "ping | tcp | mpi")
	level := fs.Int("level", 0, "MCN optimization level 0..5")
	out := fs.String("o", "", "write a pcap file instead of printing")
	max := fs.Int("max", 256, "capture buffer size (frames)")
	if code, ok := parse(fs, args); !ok {
		return code
	}

	opts, ok := options(*level, stderr)
	if !ok {
		return 2
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	s := cluster.NewMcnServer(k, 2, opts)
	tap := obs.NewRecorder(*max)
	tap.CaptureBytes = *out != ""
	s.Mcns[0].Stack.Tap = tap

	switch *scenario {
	case "ping":
		k.Go("ping", func(p *sim.Proc) {
			s.Host.Stack.Ping(p, s.Mcns[0].IP, 56, sim.Second)
			s.Mcns[0].Stack.Ping(p, s.Mcns[1].IP, 56, sim.Second)
		})
	case "tcp":
		k.Go("server", func(p *sim.Proc) {
			l, _ := s.Mcns[0].Node.Stack.Listen(5001)
			c, _ := l.Accept(p)
			c.RecvN(p, 8192)
			c.Close(p)
		})
		k.Go("client", func(p *sim.Proc) {
			c, err := s.Host.Stack.Connect(p, s.Mcns[0].IP, 5001)
			if err != nil {
				panic(err)
			}
			c.SendN(p, 8192)
			c.Close(p)
		})
	case "mpi":
		eps := s.Endpoints()
		mpi.Launch(k, eps, 7000, func(r *mpi.Rank) {
			if r.ID == 0 {
				for i := 1; i < r.W.Size(); i++ {
					r.RecvData(i)
				}
			} else {
				r.SendData(0, []byte("hello from rank"))
			}
		})
	default:
		return fail(stderr, 2, "unknown scenario %q", *scenario)
	}
	k.RunFor(100 * sim.Millisecond)

	if *out == "" {
		fmt.Fprintf(stdout, "captured %d frames on %s's MCN interface:\n", len(tap.Records), s.Mcns[0].Node.Name)
		fmt.Fprint(stdout, tap.Dump())
		return 0
	}
	f, err := os.Create(*out)
	if err != nil {
		return fail(stderr, 1, "%v", err)
	}
	defer f.Close()
	if err := tap.WritePcap(f); err != nil {
		return fail(stderr, 1, "%v", err)
	}
	fmt.Fprintf(stdout, "wrote %d frames to %s\n", len(tap.Records), *out)
	return 0
}
