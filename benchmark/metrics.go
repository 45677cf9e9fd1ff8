package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 12

// def names one metric. Bound is the share of the parent's median by which
// an end-to-end metric may get worse; per-layer metrics have none.
type def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, on both clocks. The driver's
// contract shapes the list: every workload prints every metric, none may be
// 0, and a time that reads the same on every run is refused. stream and
// npb-mpi have no random input, so their simulated times are the same for
// every seed; the simulated metrics are therefore rates, and each workload
// fills them with its own results (README.md maps ISSUE 11's names):
//
//	sim_throughput_gbps   useful bits per simulated second
//	    kv-*:     sim_qps_at_slo x value size
//	    stream:   geometric mean of the three iperf legs' goodput
//	    npb-mpi:  sim_mem_bw_gbs x 8
//	sim_serial_ops_per_s  operations one caller completes per simulated
//	                      second when it waits for each reply (1/latency)
//	    kv-*:     1 / mean request latency at the cruise rate
//	    stream:   1 / sim_ping_rtt_us
//	    npb-mpi:  kernels / sim_exec_ms
//
// A bound is what the driver allows a median over seeds to worsen by, and
// it must be three times the spread between seeds (README.md has the
// spreads). For one seed the simulated metrics are exact: -selfcheck and
// the repetition digest compare them with no tolerance.
var endToEnd = []def{
	{"setup_s", "s", "lower", 0.25},
	{"run_wall_s", "s", "lower", 0.25},
	{"run_cpu_s", "s", "lower", 0.25},
	{"sim_throughput_gbps", "Gb/s", "higher", 0.15},
	{"sim_serial_ops_per_s", "1/s", "higher", 0.04},
}

// hostClock marks the end-to-end metrics measured on the wall clock; the
// rest are simulated and must repeat exactly for a seed.
var hostClock = map[string]bool{"setup_s": true, "run_wall_s": true, "run_cpu_s": true}

// cpuShareBuckets are the host.cpu_share.* layers, in print order.
var cpuShareBuckets = []string{"runtime", "sim", "netstack", "mcnt", "core", "cpu", "dram", "sram_memmap", "ethdev", "kvstore", "serve", "mpi_npb", "other"}

// ownResults are each workload's own simulated results under the names
// ISSUE 11 gave them. They lead the per-layer list (0 on a workload they do
// not apply to), and the end-to-end pass prints the ones a workload has.
var ownResults = []def{
	{Name: "sim_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim_p99_us", Unit: "us", Better: "lower"},
	{Name: "sim_p999_us", Unit: "us", Better: "lower"},
	{Name: "sim_qps_at_slo", Unit: "1/s", Better: "higher"},
	{Name: "sim_host_mcn_gbps", Unit: "Gb/s", Better: "higher"},
	{Name: "sim_mcn_mcn_gbps", Unit: "Gb/s", Better: "higher"},
	{Name: "sim_eth_gbps", Unit: "Gb/s", Better: "higher"},
	{Name: "sim_ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "sim_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_mem_bw_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
}

// perLayer lists every per-layer metric: ownResults, then per layer, the
// prefix being the internal/ package that owns the number.
var perLayer = func() []def {
	d := append([]def(nil), ownResults...)
	d = append(d,
		def{Name: "sim.events", Unit: "count", Better: "lower"},
		def{Name: "sim.events_per_req", Unit: "count", Better: "lower"},
		def{Name: "sim.switches_per_event", Unit: "ratio", Better: "lower"},
		def{Name: "sim.spawns_per_req", Unit: "count", Better: "lower"},
		def{Name: "sim.self_wake_frac", Unit: "ratio", Better: "higher"},
		def{Name: "sim.stale_wake_frac", Unit: "ratio", Better: "lower"},
		def{Name: "sim.shell_reuse_frac", Unit: "ratio", Better: "higher"},
		def{Name: "sim.events_per_wall_s", Unit: "1/s", Better: "higher"},
		def{Name: "sim.push_pop_ns", Unit: "ns", Better: "lower"},
		def{Name: "sim.proc_switch_ns", Unit: "ns", Better: "lower"},
		def{Name: "sim.timer_reset_ns", Unit: "ns", Better: "lower"},
		def{Name: "sim.probe_allocs_per_op", Unit: "count", Better: "lower"},

		def{Name: "cpu.host_busy_frac", Unit: "ratio", Better: "lower"},
		def{Name: "cpu.dimm_busy_frac", Unit: "ratio", Better: "lower"},
		def{Name: "cpu.softirq_dispatch_ns", Unit: "ns", Better: "lower"},

		def{Name: "dram.host_row_hit_frac", Unit: "ratio", Better: "higher"},
		def{Name: "dram.dimm_row_hit_frac", Unit: "ratio", Better: "higher"},
		def{Name: "dram.host_busy_frac", Unit: "ratio", Better: "lower"},
		def{Name: "dram.dimm_busy_frac", Unit: "ratio", Better: "lower"},
		def{Name: "dram.bytes", Unit: "count", Better: "lower"},
		def{Name: "dram.access_ns", Unit: "ns", Better: "lower"},

		def{Name: "sram.ring_push_pop_ns_1k5", Unit: "ns", Better: "lower"},
		def{Name: "sram.ring_push_pop_ns_9k", Unit: "ns", Better: "lower"},
		def{Name: "sram.probe_allocs_per_op", Unit: "count", Better: "lower"},
		def{Name: "memmap.interleaved_copy_ns_per_kb", Unit: "ns", Better: "lower"},

		def{Name: "core.poll_hit_frac", Unit: "ratio", Better: "higher"},
		def{Name: "core.poll_rounds_per_req", Unit: "count", Better: "lower"},
		def{Name: "core.tx_busy_retries", Unit: "count", Better: "lower"},
		def{Name: "core.host_delivered", Unit: "count", Better: "lower"},
		def{Name: "core.relayed_dimm", Unit: "count", Better: "lower"},
		def{Name: "core.dimm_msgs_per_req", Unit: "count", Better: "lower"},
		def{Name: "core.watchdog_recoveries", Unit: "count", Better: "lower"},

		def{Name: "ethdev.tx_frames", Unit: "count", Better: "lower"},
		def{Name: "ethdev.rx_dropped", Unit: "count", Better: "lower"},
		def{Name: "ethdev.nic_busy_frac", Unit: "ratio", Better: "lower"},
		def{Name: "ethdev.nic_echo_ns", Unit: "ns", Better: "lower"},

		def{Name: "netstack.ip_pkts_per_req", Unit: "count", Better: "lower"},
		def{Name: "netstack.ip_bytes_per_req", Unit: "count", Better: "lower"},
		def{Name: "netstack.drops", Unit: "count", Better: "lower"},
		def{Name: "netstack.arp_requests", Unit: "count", Better: "lower"},
		def{Name: "netstack.checksum_ns_per_kb", Unit: "ns", Better: "lower"},
		def{Name: "netstack.tcp_loopback_ns_per_seg", Unit: "ns", Better: "lower"},
		def{Name: "netstack.udp_loopback_allocs", Unit: "count", Better: "lower"},
		def{Name: "netstack.frame_pool_ns", Unit: "ns", Better: "lower"},

		def{Name: "mcnt.data_frames_per_req", Unit: "count", Better: "lower"},
		def{Name: "mcnt.ctl_frame_frac", Unit: "ratio", Better: "lower"},
		def{Name: "mcnt.resent", Unit: "count", Better: "lower"},
		def{Name: "mcnt.nacks", Unit: "count", Better: "lower"},
		def{Name: "mcnt.probes", Unit: "count", Better: "lower"},
		def{Name: "mcnt.credit_stalls", Unit: "count", Better: "lower"},
		def{Name: "mcnt.accounting_drift", Unit: "count", Better: "lower"},
		def{Name: "mcnt.header_codec_ns", Unit: "ns", Better: "lower"},

		def{Name: "kvstore.gets", Unit: "count", Better: "higher"},
		def{Name: "kvstore.sets", Unit: "count", Better: "higher"},
		def{Name: "kvstore.miss_frac", Unit: "ratio", Better: "lower"},
		def{Name: "kvstore.bad_ops", Unit: "count", Better: "lower"},
		def{Name: "kvstore.codec_ns", Unit: "ns", Better: "lower"},
		def{Name: "kvstore.codec_allocs_per_op", Unit: "count", Better: "lower"},

		def{Name: "nmop.offload_frac", Unit: "ratio", Better: "higher"},
		def{Name: "nmop.wire_reqs_per_op", Unit: "count", Better: "lower"},
		def{Name: "nmop.resp_bytes_per_op", Unit: "count", Better: "lower"},
		def{Name: "nmop.codec_ns", Unit: "ns", Better: "lower"},

		def{Name: "serve.queue_p99_us", Unit: "us", Better: "lower"},
		def{Name: "serve.batch_wait_p99_us", Unit: "us", Better: "lower"},
		def{Name: "serve.service_p99_us", Unit: "us", Better: "lower"},
		def{Name: "serve.reqs_per_flush_mean", Unit: "count", Better: "higher"},
		def{Name: "serve.achieved_over_offered", Unit: "ratio", Better: "higher"},
		def{Name: "serve.unfinished", Unit: "count", Better: "lower"},
		def{Name: "serve.shard_imbalance", Unit: "ratio", Better: "lower"},
		def{Name: "serve.router_owners_ns", Unit: "ns", Better: "lower"},

		def{Name: "admit.opens", Unit: "count", Better: "lower"},
		def{Name: "admit.shed", Unit: "count", Better: "lower"},
		def{Name: "admit.rerouted", Unit: "count", Better: "lower"},

		def{Name: "replica.fwd_per_set", Unit: "ratio", Better: "higher"},
		def{Name: "replica.dropped", Unit: "count", Better: "lower"},
		def{Name: "replica.max_pending", Unit: "count", Better: "lower"},
		def{Name: "replica.sync_degraded", Unit: "count", Better: "lower"},

		def{Name: "mpi.msgs_sent", Unit: "count", Better: "lower"},
		def{Name: "mpi.bytes_sent", Unit: "count", Better: "lower"},
		def{Name: "mpi.allreduce_1k_us", Unit: "us", Better: "lower"},
		def{Name: "npb.cg_ms", Unit: "ms", Better: "lower"},
		def{Name: "npb.mg_ms", Unit: "ms", Better: "lower"},
		def{Name: "npb.is_ms", Unit: "ms", Better: "lower"},

		def{Name: "phase.client_queue_us", Unit: "us", Better: "lower"},
		def{Name: "phase.batch_wait_us", Unit: "us", Better: "lower"},
		def{Name: "phase.host_stack_us", Unit: "us", Better: "lower"},
		def{Name: "phase.wire_us", Unit: "us", Better: "lower"},
		def{Name: "phase.channel_wait_us", Unit: "us", Better: "lower"},
		def{Name: "phase.dimm_irq_us", Unit: "us", Better: "lower"},
		def{Name: "phase.dimm_service_us", Unit: "us", Better: "lower"},
		def{Name: "phase.return_path_us", Unit: "us", Better: "lower"},
		def{Name: "obs.spans", Unit: "count", Better: "higher"},
		def{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	)
	for _, b := range cpuShareBuckets {
		d = append(d, def{Name: "host.cpu_share." + b, Unit: "ratio", Better: "lower"})
	}
	return append(d,
		def{Name: "host.alloc_mb_per_run", Unit: "MB", Better: "lower"},
		def{Name: "host.allocs_per_req", Unit: "count", Better: "lower"},
		def{Name: "host.gc_count", Unit: "count", Better: "lower"},
		def{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
		def{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
		def{Name: "host.calib_spins_per_s", Unit: "1/s", Better: "higher"},
		def{Name: "host.wall_iqr_frac", Unit: "ratio", Better: "lower"},
		def{Name: "host.wall_s_gomaxprocs2", Unit: "s", Better: "lower"},
	)
}()

// phaseMetric maps obs.Phase order onto the phase.* names.
var phaseMetric = []string{
	"phase.client_queue_us", "phase.batch_wait_us", "phase.host_stack_us", "phase.wire_us",
	"phase.channel_wait_us", "phase.dimm_irq_us", "phase.dimm_service_us", "phase.return_path_us",
}

// values holds metric values by name.
type values map[string]float64

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}

// String renders the values in name order; two runs of one scenario that
// simulated the same thing render the same string.
func (v values) String() string {
	names := make([]string, 0, len(v))
	for n := range v {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%v ", n, v[n])
	}
	return b.String()
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a run prints last.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func pick(defs []def, v values) map[string]outMetric {
	m := make(map[string]outMetric, len(defs))
	for _, d := range defs {
		m[d.Name] = outMetric{Value: v[d.Name], Unit: d.Unit}
	}
	return m
}

// table prints metrics by name with their units, in definition order.
func table(w io.Writer, defs []def, v values) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, v[d.Name], d.Unit)
	}
}

// manifest renders BENCHMARK.json from the tables above, so the committed
// file cannot name a metric the program does not print.
func manifest(w io.Writer, scs []*scenario) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []def      `json:"end_to_end"`
		PerLayer   []def      `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range scs {
		m.Workloads = append(m.Workloads, workload{s.name, s.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
