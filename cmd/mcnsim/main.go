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
	"flag"
	"fmt"
	"os"

	"github.com/mcn-arch/mcn"
)

var commands = map[string]func(args []string){
	"config": config,
	"run":    run,
	"iperf":  iperf,
	"ping":   ping,
	"npb":    npb,
	"trace":  trace,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: mcnsim config|run|iperf|ping|npb|trace [flags]  (-h on a sub-command lists its flags)")
		os.Exit(2)
	}
	commands[os.Args[1]](os.Args[2:])
}

// fail prints msg to stderr and exits with status code.
func fail(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(code)
}

// finish steps k until the MPI job ends: at mcn0 the HR-timer polling
// never idles, so one long RunFor would simulate the whole cap.
func finish(k *mcn.Kernel, w *mcn.World) {
	for end := k.Now().Add(600 * mcn.Second); !w.Done() && k.Now() < end; {
		k.RunFor(mcn.Millisecond)
	}
	if !w.Done() {
		fail(1, "job did not finish within 600 simulated seconds")
	}
}

func config(args []string) {
	fs := flag.NewFlagSet("config", flag.ExitOnError)
	list := fs.Bool("list", false, "list available workloads")
	fs.Parse(args)

	if *list {
		for _, n := range mcn.WorkloadNames() {
			fmt.Println(n)
		}
		return
	}
	h := mcn.HostConfig("host")
	m := mcn.McnConfig("mcn")
	fmt.Println("System configuration (Table II):")
	fmt.Printf("  host: %d cores @ %.2f GHz, %d x %s memory channels\n",
		h.Cores, h.FreqHz/1e9, h.Channels, h.DRAM.Name)
	fmt.Printf("  MCN:  %d cores @ %.2f GHz, %d x %s private channel\n",
		m.Cores, m.FreqHz/1e9, m.Channels, m.DRAM.Name)
	fmt.Printf("  network: 10GbE, 1us link latency; MCN SRAM buffer: 96KB\n")
	fmt.Printf("  optimization levels (Table I):\n")
	for _, l := range mcn.OptLevels() {
		o := l.Options()
		fmt.Printf("    %v: interrupt=%v csum-bypass=%v mtu=%d tso=%v dma=%v\n",
			l, o.DimmInterrupt, o.ChecksumBypass, o.MTU, o.TSO, o.DMA)
	}
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	dimms := fs.Int("dimms", 4, "MCN DIMM count")
	level := fs.Int("level", 3, "optimization level 0..5")
	workload := fs.String("workload", "mg", "workload name (see mcnsim config -list)")
	scale := fs.Float64("scale", 0.1, "working-set multiplier")
	fs.Parse(args)

	fn, ok := mcn.WorkloadSuite()[*workload]
	if !ok {
		fail(2, "unknown workload %q (try mcnsim config -list)", *workload)
	}
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, *dimms, mcn.OptLevel(*level).Options())
	eps := s.Endpoints()
	w := mcn.LaunchMPI(k, eps, 7000, func(r *mcn.Rank) { fn(r, *scale) })
	finish(k, w)
	el := w.Elapsed()
	cpu := s.Host.CPU
	fmt.Printf("workload=%s dimms=%d level=mcn%d ranks=%d\n", *workload, *dimms, *level, len(eps))
	fmt.Printf("execution time:       %v\n", el)
	fmt.Printf("aggregate DRAM:       %.2f GB/s (%.1f MB moved)\n",
		float64(s.TotalDRAMBytes())/el.Seconds()/1e9, float64(s.TotalDRAMBytes())/1e6)
	fmt.Printf("host CPU utilization: %.1f%%\n", cpu.Busy.Busy.Seconds()/(el.Seconds()*float64(cpu.NumCores()))*100)
	fmt.Printf("energy:               %.2f J\n", mcn.DefaultPower().McnServerEnergy(s, el))
}

func iperf(args []string) {
	fs := flag.NewFlagSet("iperf", flag.ExitOnError)
	mode := fs.String("mode", "host-mcn", "host-mcn | mcn-mcn | eth")
	level := fs.Int("level", 0, "MCN optimization level 0..5 (Table I)")
	dimms := fs.Int("dimms", 8, "number of MCN DIMMs")
	clients := fs.Int("clients", 4, "number of iperf clients")
	durMs := fs.Int("duration", 18, "measurement window (simulated ms)")
	fs.Parse(args)

	if *level < 0 || *level > 5 {
		fail(2, "level must be 0..5")
	}
	opts := mcn.OptLevel(*level).Options()
	k := mcn.NewKernel()
	warm := 6 * mcn.Millisecond
	dur := mcn.Duration(*durMs) * mcn.Millisecond

	var res *mcn.IperfResult
	switch *mode {
	case "host-mcn":
		s := mcn.NewMcnServer(k, *dimms, opts)
		server := s.Endpoints()[0]
		res = mcn.Iperf(k, server, s.McnEndpoints()[:*clients], 5201, warm, dur)
	case "mcn-mcn":
		s := mcn.NewMcnServer(k, *dimms, opts)
		eps := s.Endpoints()
		server := eps[1] // first MCN node
		cl := []mcn.Endpoint{eps[0]}
		cl = append(cl, eps[2:2+*clients-1]...)
		res = mcn.Iperf(k, server, cl, 5201, warm, dur)
	case "eth":
		c := mcn.NewEthCluster(k, *clients+1)
		eps := c.Endpoints()
		res = mcn.Iperf(k, eps[0], eps[1:], 5201, warm, dur)
	default:
		fail(2, "unknown mode %q", *mode)
	}
	k.RunFor(warm + dur + 10*mcn.Millisecond)

	fmt.Printf("mode=%s level=mcn%d clients=%d\n", *mode, *level, *clients)
	fmt.Printf("aggregate goodput: %8.2f Gbps\n", res.GoodputBps*8/1e9)
	for i, pc := range res.PerClient {
		fmt.Printf("  client %d:        %8.2f Gbps\n", i, pc*8/1e9)
	}
}

func ping(args []string) {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	mode := fs.String("mode", "host-mcn", "host-mcn | mcn-mcn | eth")
	level := fs.Int("level", 0, "MCN optimization level 0..5")
	count := fs.Int("count", 5, "pings per payload size")
	fs.Parse(args)

	sizes := []int{16, 256, 1024, 4096, 8192}
	opts := mcn.OptLevel(*level).Options()
	k := mcn.NewKernel()

	var from mcn.Endpoint
	var to mcn.IP
	switch *mode {
	case "host-mcn":
		s := mcn.NewMcnServer(k, 2, opts)
		from, to = s.Endpoints()[0], s.McnEndpoints()[0].IP
	case "mcn-mcn":
		s := mcn.NewMcnServer(k, 2, opts)
		from, to = s.McnEndpoints()[0], s.McnEndpoints()[1].IP
	case "eth":
		c := mcn.NewEthCluster(k, 2)
		eps := c.Endpoints()
		from, to = eps[0], eps[1].IP
	default:
		fail(2, "unknown mode %q", *mode)
	}
	res := mcn.PingSweep(k, from, to, sizes, *count)
	k.RunFor(mcn.Second)

	fmt.Printf("mode=%s level=mcn%d\n", *mode, *level)
	fmt.Printf("%8s %12s\n", "payload", "avg RTT")
	for _, s := range sizes {
		fmt.Printf("%7dB %12v\n", s, res[s])
	}
}

func npb(args []string) {
	fs := flag.NewFlagSet("npb", flag.ExitOnError)
	kernel := fs.String("kernel", "mg", "cg|ep|ft|is|lu|mg (or any suite workload)")
	system := fs.String("system", "scaleup", "scaleup | mcn")
	cores := fs.Int("cores", 8, "scale-up core count (ranks = cores)")
	dimms := fs.Int("dimms", 2, "MCN DIMM count (mcn system)")
	level := fs.Int("level", 3, "MCN optimization level")
	scale := fs.Float64("scale", 0.1, "working-set multiplier")
	fs.Parse(args)

	fn, ok := mcn.WorkloadSuite()[*kernel]
	if !ok {
		fail(2, "unknown kernel %q", *kernel)
	}
	k := mcn.NewKernel()
	var eps []mcn.Endpoint
	var dramBytes func() int64
	switch *system {
	case "scaleup":
		h := mcn.NewScaleUp(k, *cores)
		lo := mcn.IP{127, 0, 0, 1}
		for i := 0; i < *cores; i++ {
			eps = append(eps, mcn.Endpoint{Node: h.Node, IP: lo})
		}
		dramBytes = h.TotalDRAMBytes
	case "mcn":
		s := mcn.NewMcnServer(k, *dimms, mcn.OptLevel(*level).Options())
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
		fail(2, "unknown system %q", *system)
	}

	w := mcn.LaunchMPI(k, eps, 7000, func(r *mcn.Rank) { fn(r, *scale) })
	finish(k, w)
	el := w.Elapsed()
	fmt.Printf("kernel=%s system=%s ranks=%d\n", *kernel, *system, len(eps))
	fmt.Printf("execution time:        %v\n", el)
	fmt.Printf("aggregate DRAM moved:  %.1f MB\n", float64(dramBytes())/1e6)
	fmt.Printf("aggregate DRAM rate:   %.2f GB/s\n", float64(dramBytes())/el.Seconds()/1e9)
}

func trace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	scenario := fs.String("scenario", "ping", "ping | tcp | mpi")
	level := fs.Int("level", 0, "MCN optimization level 0..5")
	out := fs.String("o", "", "write a pcap file instead of printing")
	max := fs.Int("max", 256, "capture buffer size (frames)")
	fs.Parse(args)

	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 2, mcn.OptLevel(*level).Options())
	tap := mcn.NewTracer(*max)
	tap.CaptureBytes = *out != ""
	s.Mcns[0].Stack.Tap = tap

	switch *scenario {
	case "ping":
		k.Go("ping", func(p *mcn.Proc) {
			s.Host.Stack.Ping(p, s.Mcns[0].IP, 56, mcn.Second)
			s.Mcns[0].Stack.Ping(p, s.Mcns[1].IP, 56, mcn.Second)
		})
	case "tcp":
		k.Go("server", func(p *mcn.Proc) {
			l, _ := s.Mcns[0].Node.Stack.Listen(5001)
			c, _ := l.Accept(p)
			c.RecvN(p, 8192)
			c.Close(p)
		})
		k.Go("client", func(p *mcn.Proc) {
			c, err := s.Host.Stack.Connect(p, s.Mcns[0].IP, 5001)
			if err != nil {
				panic(err)
			}
			c.SendN(p, 8192)
			c.Close(p)
		})
	case "mpi":
		eps := s.Endpoints()
		mcn.LaunchMPI(k, eps, 7000, func(r *mcn.Rank) {
			if r.ID == 0 {
				for i := 1; i < r.W.Size(); i++ {
					r.RecvData(i)
				}
			} else {
				r.SendData(0, []byte("hello from rank"))
			}
		})
	default:
		fail(2, "unknown scenario %q", *scenario)
	}
	k.RunFor(100 * mcn.Millisecond)

	if *out == "" {
		fmt.Printf("captured %d frames on %s's MCN interface:\n", len(tap.Records), s.Mcns[0].Node.Name)
		fmt.Print(tap.Dump())
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fail(1, "%v", err)
	}
	defer f.Close()
	if err := tap.WritePcap(f); err != nil {
		fail(1, "%v", err)
	}
	fmt.Printf("wrote %d frames to %s\n", len(tap.Records), *out)
}
