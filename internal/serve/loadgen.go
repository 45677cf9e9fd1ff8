package serve

import (
	"fmt"
	"sort"
	"strings"

	"github.com/mcn-arch/mcn/internal/admit"
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/nmop"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/replica"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/stats"
)

const (
	opGet = kvstore.OpGet
	opSet = kvstore.OpSet
)

// maxInflight caps pipelined requests per shard connection.
const maxInflight = 16

// Shard is one kvstore target the router can address.
type Shard struct {
	// Name labels the shard in summaries ("host/mcn3", "node5", ...).
	Name string
	Addr netstack.IP
	Port uint16
	// Server, when set, lets Run preload the keyspace directly into the
	// store before the clock starts (the operator warm-up every serving
	// benchmark performs).
	Server *kvstore.Server
	// Backup is this keyspace's backup store, created by Run on the next
	// shard's node when Config.Repl is on (nil otherwise). Exposed so
	// experiment harnesses can check primary/backup convergence.
	Backup *kvstore.Server
}

// Config describes one load-generation run.
type Config struct {
	// Seed keys every random stream (arrivals, key popularity, op mix).
	// Same seed, same topology: bit-identical run.
	Seed     uint64
	Workload Workload
	// Shards are the kvstore servers the router spreads keys over;
	// Clients are the endpoints the load generators run on. Every client
	// keeps one pipelined connection per shard.
	Shards  []Shard
	Clients []cluster.Endpoint
	// RatePerSec is the aggregate open-loop offered load, split evenly
	// over one arrival process per client endpoint. Ignored when
	// ClosedWorkers is set.
	RatePerSec float64
	// ClosedWorkers switches to the closed-loop driver: this many workers
	// per client endpoint, each issuing the next request as soon as the
	// previous one completes.
	ClosedWorkers int
	// Batch bounds the per-connection coalescing window; the zero value
	// disables batching (one request per Send).
	Batch BatchConfig
	// Admit enables the admission-control plane (internal/admit): per-shard
	// breakers between the load driver and the router that shed or re-route
	// requests to shards detected unresponsive, bounding the fault-time
	// tail at the router instead of riding the TCP RTO. The zero value
	// disables it.
	Admit admit.Config
	// Repl enables R=2 primary/backup replication (internal/replica): Run
	// creates one backup store per keyspace on the next shard's node,
	// forwards primary writes to it, and fails requests over to the
	// backup while the primary's breaker is open. Requires Admit (the
	// breaker state is the failover trigger) and at least two shards.
	// The zero value disables it.
	Repl replica.Config
	// Ops mixes near-memory operator traffic (multi-GET, scans,
	// filter+aggregate, RMW — internal/nmop) into the workload, with the
	// offload decision layer choosing between the on-DIMM and host-side
	// execution path per op. The zero value disables it, and a disabled
	// run is byte-identical to one without the subsystem.
	Ops OpsConfig
	// Tracer, when set, samples per-request spans: Run wires it onto the
	// client and shard-server network stacks (composing with any tap
	// already attached) and into the kvstore servers, and the load
	// drivers open/close the spans. The caller wires the MCN channel and
	// mcnt fabric taps where the topology has them. Tracing charges no
	// simulated time and draws only from seeded streams, so a traced run
	// is event-identical to an untraced one.
	Tracer *obs.Tracer
	// Metrics, when set, receives the run's telemetry as named metrics
	// (counters, per-phase HDRs, per-shard kvstore gauges) at collect
	// time, for a deterministic end-of-run snapshot.
	Metrics *obs.Registry
	// Timeline, when set, buckets request outcomes, queue depths and
	// cross-subsystem counters into fixed sim-time windows (internal/obs
	// Timeline): the continuous-telemetry view behind the SLO burn-rate
	// monitor and incident attribution. Like the tracer it charges no
	// simulated time and draws no randomness, so a timeline-on run is
	// event-identical to a timeline-off one.
	Timeline *obs.Timeline
	// Warmup requests are issued but not measured; Measure is the
	// recorded window; Drain lets in-flight tails complete before the
	// run is cut off and stragglers are counted as unfinished.
	Warmup, Measure, Drain sim.Duration
}

// BatchConfig bounds request coalescing on a shard connection: requests
// dequeued together ride one Send (and, via TSO, one TCP segment train),
// amortizing the per-call socket and per-segment driver costs that bound
// the serving knee. A batch flushes at MaxRequests requests, MaxBytes
// encoded bytes, or Window simulated time after the first dequeue —
// whichever comes first.
type BatchConfig struct {
	// MaxRequests caps requests per batch; <= 1 disables batching.
	MaxRequests int
	// MaxBytes caps the encoded batch size (default 8KB when batching).
	MaxBytes int
	// Window is how long the first dequeued request may wait for
	// company, and only while earlier responses are still outstanding;
	// with nothing in flight the batch flushes immediately
	// (flush-on-idle), so sparse traffic never pays the window. 0 means
	// coalesce only the backlog already queued — batches then form
	// purely from backpressure, adding no latency at low load.
	Window sim.Duration
}

// Enabled reports whether batching is on.
func (bc BatchConfig) Enabled() bool { return bc.MaxRequests > 1 }

func (bc BatchConfig) withDefaults() BatchConfig {
	if bc.Enabled() && bc.MaxBytes == 0 {
		bc.MaxBytes = 8 << 10
	}
	return bc
}

func (c Config) withDefaults() Config {
	c.Workload = c.Workload.withDefaults()
	c.Batch = c.Batch.withDefaults()
	c.Ops = c.Ops.withDefaults()
	if c.Warmup == 0 {
		c.Warmup = sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 5 * sim.Millisecond
	}
	if c.Drain == 0 {
		c.Drain = 2 * sim.Millisecond
	}
	return c
}

// Deadline returns the total simulated span of a run.
func (c Config) Deadline() sim.Duration { return c.Warmup + c.Measure + c.Drain }

// request is one in-flight operation.
type request struct {
	op       byte
	key      int
	shard    int
	sync     bool        // SET carrying the SyncFlag (wait for backup ack)
	failover bool        // routed to the keyspace's backup store
	arrival  sim.Time    // when the workload generated it (open-loop intent time)
	deq      sim.Time    // when the connection dequeued it into a batch
	sent     sim.Time    // when its batch reached the wire
	eob      bool        // last request of its batch: completing it frees the pipeline slot
	done     *sim.Signal // closed-loop completion, nil for open loop
	span     *obs.Span   // sampled trace span, nil when untraced
	// Operator-traffic fields (ops.go), all zero for plain GET/SET:
	// kind is the wire operator this request carries (0 when the part is
	// a plain GET/SET leg of a host fallback), lop the logical op it
	// belongs to, payload the encoded operator body sent as the request
	// value, and rows the row count the host fallback charges client-side
	// compute for on completion.
	kind    nmop.Kind
	lop     *logicalOp
	payload []byte
	rows    int
}

// ShardStats is one shard's slice of a run.
type ShardStats struct {
	Shard  int
	Name   string
	Issued int64 // requests routed to the shard inside the measured window
	N      int64 // completed successfully
	Errors int64
	// Unfinished counts in-window requests still queued or in flight when
	// the run was cut off (a hung or offline shard shows up here).
	Unfinished int64
	// Shed counts in-window requests fast-failed at the router because
	// this shard (their primary owner) was open and no candidate admitted
	// them; Rerouted counts in-window requests this shard absorbed from
	// open peers. Both stay 0 with admission off.
	Shed, Rerouted int64
	// Misses counts in-window completed GETs that returned StatusMiss —
	// with a preloaded keyspace these only appear when a request was
	// re-routed to a shard that never held its key.
	Misses int64
	// FailedOver counts in-window requests of this keyspace served
	// through its backup store while the primary's breaker was open.
	FailedOver int64
	// IssuedEver / DoneEver are lifetime (window-independent) counts of
	// requests routed to and responses received from the shard. A shard
	// that connected but never completed anything while the rest of the
	// fleet made progress went dark before producing a single response —
	// the signature Degraded() checks that in-window stats cannot see
	// when the outage started inside the warmup.
	IssuedEver, DoneEver int64
	// Lat is the shard's total-latency histogram (measured window only).
	Lat stats.HDR
}

// Result is the telemetry of one run; histograms cover only requests that
// arrived inside the measured window (warmup-trimmed).
type Result struct {
	Seed          uint64
	OfferedQPS    float64 // 0 for closed-loop runs
	ClosedWorkers int
	N             int64 // successful in-window completions
	Errors        int64
	Unfinished    int64
	QPS           float64 // N / Measure
	// Total = Queue + BatchWait + Service per request: Queue is arrival
	// to batch dequeue (router queue + pipeline-slot wait), BatchWait is
	// time spent inside the coalescing window waiting for the batch to
	// flush (always 0 with batching off), Service is wire to response
	// (network + server time).
	Total, Queue, BatchWait, Service stats.HDR
	// BatchSize records requests per flushed batch (measured window).
	BatchSize stats.HDR
	PerShard  []*ShardStats
	// AdmitOn records whether the admission-control plane ran; the fields
	// below are only populated when it did. Shed and Rerouted are the
	// in-window per-request admission outcomes (Shed requests are counted
	// separately from Errors — they carry a distinct fast-fail status and
	// never enter the latency histograms). AdmitCounters is the
	// whole-run controller tally and AdmitEvents the per-shard breaker
	// health timeline, in event order.
	AdmitOn       bool
	Shed          int64
	Rerouted      int64
	AdmitCounters stats.AdmitCounters
	AdmitEvents   []stats.HealthEvent
	// Misses totals the per-shard in-window completed-miss counts.
	Misses int64
	// ReplOn records whether the replication plane ran; the fields below
	// are only populated when it did. FailedOver is the in-window count
	// of requests served through a backup store; ReplCounters and
	// ReplEvents are the whole-run replication tally and timeline.
	ReplOn       bool
	FailedOver   int64
	ReplCounters stats.ReplCounters
	ReplEvents   []stats.ReplEvent
	// Repl is the live replication manager (nil when ReplOn is false) —
	// kept on the result so harnesses can run post-deadline convergence
	// sweeps (FinalSweep) and inspect pair state before kernel shutdown.
	Repl *replica.Manager
	// OpsOn records whether operator traffic ran; the fields below are
	// only populated when it did. Ops tallies each family's path picks
	// and wire traffic (requests and bytes over the channel — the figure
	// the offload exists to bend), and the OpsLat histograms record
	// logical-op latency, arrival to last wire part, in-window only.
	OpsOn                                               bool
	Ops                                                 stats.OpsCounters
	OpsMultiGetLat, OpsScanLat, OpsFilterLat, OpsRMWLat stats.HDR
}

// Summary is the warmup-trimmed headline of a run; latencies are in
// nanoseconds.
type Summary struct {
	N                        int64
	QPS                      float64
	P50, P95, P99, P999, Max float64
}

// Summary extracts the headline numbers.
func (r *Result) Summary() Summary {
	return Summary{
		N:    r.N,
		QPS:  r.QPS,
		P50:  r.Total.Quantile(0.50),
		P95:  r.Total.Quantile(0.95),
		P99:  r.Total.Quantile(0.99),
		P999: r.Total.Quantile(0.999),
		Max:  float64(r.Total.Max()),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("qps=%.0f p50=%.1fus p95=%.1fus p99=%.1fus p999=%.1fus max=%.1fus (n=%d)",
		s.QPS, s.P50/1e3, s.P95/1e3, s.P99/1e3, s.P999/1e3, s.Max/1e3, s.N)
}

// degradedFactor flags a shard whose worst latency is this many times the
// median per-shard maximum — the signature of a DIMM or link that went
// away mid-run and recovered through retransmission timeouts.
const degradedFactor = 8

// Degraded returns the unhealthy shards. With admission control on, the
// verdict reads the breaker health timeline — a shard is degraded iff its
// breaker ever opened, it shed traffic, or it failed/stranded requests —
// so post-hoc detection can never disagree with the control plane that
// acted during the run. With admission off the original latency heuristic
// is the fallback: errors, unfinished requests, or a tail collapsed
// relative to the rest of the fleet. Both verdicts also flag a shard
// that went dark before the warmup ended: it was routed requests over
// its lifetime yet never produced one response while the rest of the
// fleet made progress — invisible to the in-window stats (Issued, N,
// Errors and Unfinished are all zero for it) and to the latency
// heuristic (no samples), because every stranded request predates the
// measured window.
func (r *Result) Degraded() []int {
	var fleetDone int64
	for _, ss := range r.PerShard {
		fleetDone += ss.DoneEver
	}
	darkEver := func(ss *ShardStats) bool {
		return ss.IssuedEver > 0 && ss.DoneEver == 0 && fleetDone > 0
	}
	if r.AdmitOn {
		opened := make(map[int]bool)
		for _, e := range r.AdmitEvents {
			if e.To == "open" {
				opened[e.Shard] = true
			}
		}
		var out []int
		for _, ss := range r.PerShard {
			if ss.Errors > 0 || ss.Unfinished > 0 || ss.Shed > 0 || opened[ss.Shard] || darkEver(ss) {
				out = append(out, ss.Shard)
			}
		}
		return out
	}
	var maxes []int64
	for _, ss := range r.PerShard {
		if ss.N > 0 {
			maxes = append(maxes, ss.Lat.Max())
		}
	}
	var med int64
	if len(maxes) > 0 {
		sort.Slice(maxes, func(i, j int) bool { return maxes[i] < maxes[j] })
		med = maxes[len(maxes)/2]
	}
	var out []int
	for _, ss := range r.PerShard {
		if ss.Errors > 0 || ss.Unfinished > 0 || darkEver(ss) || (med > 0 && ss.Lat.Max() >= degradedFactor*med) {
			out = append(out, ss.Shard)
		}
	}
	return out
}

// String renders the run as a table.
func (r *Result) String() string {
	var b strings.Builder
	mode := fmt.Sprintf("open-loop %.0f req/s offered", r.OfferedQPS)
	if r.ClosedWorkers > 0 {
		mode = fmt.Sprintf("closed-loop %d workers", r.ClosedWorkers)
	}
	fmt.Fprintf(&b, "serve run (seed %d, %s): %s\n", r.Seed, mode, r.Summary())
	fmt.Fprintf(&b, "  queue   p50=%.1fus p99=%.1fus | service p50=%.1fus p99=%.1fus\n",
		r.Queue.Quantile(0.5)/1e3, r.Queue.Quantile(0.99)/1e3,
		r.Service.Quantile(0.5)/1e3, r.Service.Quantile(0.99)/1e3)
	if r.BatchSize.N() > 0 {
		fmt.Fprintf(&b, "  batch   mean=%.1f max=%d reqs/flush | batch-wait p99=%.1fus\n",
			r.BatchSize.Mean(), r.BatchSize.Max(), r.BatchWait.Quantile(0.99)/1e3)
	}
	if r.Errors > 0 || r.Unfinished > 0 || r.Misses > 0 {
		fmt.Fprintf(&b, "  errors=%d unfinished=%d misses=%d\n", r.Errors, r.Unfinished, r.Misses)
	}
	if r.AdmitOn {
		fmt.Fprintf(&b, "  admit   %s\n", r.AdmitCounters.String())
		for _, e := range r.AdmitEvents {
			fmt.Fprintf(&b, "    %s\n", e)
		}
	}
	if r.ReplOn {
		fmt.Fprintf(&b, "  repl    %s\n", r.ReplCounters.String())
		for _, e := range r.ReplEvents {
			fmt.Fprintf(&b, "    %s\n", e)
		}
	}
	if r.OpsOn {
		fmt.Fprintf(&b, "  ops     %s\n", r.Ops.String())
		fmt.Fprintf(&b, "  ops-lat multiget p99=%.1fus scan p99=%.1fus filter p99=%.1fus rmw p99=%.1fus\n",
			r.OpsMultiGetLat.Quantile(0.99)/1e3, r.OpsScanLat.Quantile(0.99)/1e3,
			r.OpsFilterLat.Quantile(0.99)/1e3, r.OpsRMWLat.Quantile(0.99)/1e3)
	}
	for _, ss := range r.PerShard {
		fmt.Fprintf(&b, "  shard %d %-12s n=%-6d p99=%9.1fus max=%9.1fus",
			ss.Shard, ss.Name, ss.N, ss.Lat.Quantile(0.99)/1e3, float64(ss.Lat.Max())/1e3)
		if ss.Errors > 0 || ss.Unfinished > 0 {
			fmt.Fprintf(&b, " errors=%d unfinished=%d", ss.Errors, ss.Unfinished)
		}
		if ss.Misses > 0 {
			fmt.Fprintf(&b, " misses=%d", ss.Misses)
		}
		if ss.Shed > 0 || ss.Rerouted > 0 {
			fmt.Fprintf(&b, " shed=%d rerouted=%d", ss.Shed, ss.Rerouted)
		}
		if ss.FailedOver > 0 {
			fmt.Fprintf(&b, " failover=%d", ss.FailedOver)
		}
		fmt.Fprintln(&b)
	}
	if deg := r.Degraded(); len(deg) > 0 {
		names := make([]string, len(deg))
		for i, s := range deg {
			names[i] = fmt.Sprintf("%d (%s)", s, r.PerShard[s].Name)
		}
		fmt.Fprintf(&b, "  degraded shards: %s\n", strings.Join(names, ", "))
	}
	return b.String()
}

// bench is the per-run orchestration state.
type bench struct {
	k        *sim.Kernel
	cfg      Config
	keys     []string
	keyShard []int
	// keyOwners is each key's ring-ordered owner list (primary first),
	// precomputed only when the re-route policy needs fallback owners.
	keyOwners [][]int
	conns     [][]*shardConn // [client][shard]
	// bconns are the failover connections to each keyspace's backup
	// store, dialed eagerly so a failover never pays a handshake
	// mid-outage; nil with replication off.
	bconns [][]*shardConn // [client][keyspace]
	ctrl   *admit.Controller
	repl   *replica.Manager
	ops    *opsState // operator plumbing, nil with Config.Ops off
	res    *Result

	measStart, measEnd sim.Time
}

// shardConn is one client's pipelined connection to one store: requests
// queue here after routing, a sender writes them onto the wire within the
// in-flight window, and a receiver matches responses in FIFO order. For
// a failover connection shard stays the keyspace index (latency and miss
// attribution), while admitShard is the physical host whose breaker the
// connection's telemetry feeds — the backup's host, not the dead primary.
type shardConn struct {
	b           *bench
	ci          int // owning client index (operator fan-out re-enqueues)
	admitShard  int
	addr        netstack.IP
	port        uint16
	client      cluster.Endpoint
	q           *sim.Queue[*request]
	inflight    *sim.Resource
	outstanding []*request
	conn        netstack.Conn
	dead        bool
	setVal      []byte
	// flow is the tracer's correlation state for this connection (nil
	// when untraced).
	flow *obs.Flow
}

// Run executes one load-generation run on k: preload the keyspace, start
// the shard connections and drivers, run the kernel to the configured
// deadline, and collect the telemetry. Run owns the kernel's event loop
// for the duration; the caller still owns Shutdown. Every stream is
// seeded, so two Runs with the same config are bit-identical.
func Run(k *sim.Kernel, cfg Config) *Result {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 || len(cfg.Clients) == 0 {
		panic("serve: config needs at least one shard and one client")
	}
	w := cfg.Workload
	router := NewRouter(len(cfg.Shards), 0)
	base := k.Now()

	b := &bench{
		k:         k,
		cfg:       cfg,
		keys:      make([]string, w.Keys),
		keyShard:  make([]int, w.Keys),
		measStart: base.Add(cfg.Warmup),
		measEnd:   base.Add(cfg.Warmup + cfg.Measure),
		res:       &Result{Seed: cfg.Seed, OfferedQPS: cfg.RatePerSec, ClosedWorkers: cfg.ClosedWorkers},
	}
	if cfg.ClosedWorkers > 0 {
		b.res.OfferedQPS = 0
	}

	// The admission-control plane sits between the drivers and the router:
	// one breaker per shard, every decision on the simulated clock, jitter
	// seeded from the run seed so fault replays stay byte-identical.
	if cfg.Admit.Enabled() {
		names := make([]string, len(cfg.Shards))
		for si := range cfg.Shards {
			names[si] = cfg.Shards[si].Name
		}
		b.ctrl = admit.New(k, cfg.Seed, names)
		b.res.AdmitOn = true
	}

	// The replication plane: one backup store per keyspace on the next
	// shard's node, a forwarder per pair, and the readmission gate wired
	// into the admission controller. Built before the preload so both
	// replicas start converged.
	if cfg.Repl.Enabled() {
		if b.ctrl == nil {
			panic("serve: replication requires admission control (Config.Admit)")
		}
		if len(cfg.Shards) < 2 {
			panic("serve: replication needs at least two shards")
		}
		pairs := make([]replica.Pair, len(cfg.Shards))
		for i := range cfg.Shards {
			if cfg.Shards[i].Server == nil {
				panic("serve: replication needs every shard's Server")
			}
			h := (i + 1) % len(cfg.Shards)
			bport := cfg.Shards[i].Port + replica.BackupPortOffset
			bsrv := kvstore.NewServer(k, cfg.Shards[h].Server.Endpoint(), bport)
			cfg.Shards[i].Backup = bsrv
			pairs[i] = replica.Pair{
				Index: i, Name: cfg.Shards[i].Name,
				Primary: cfg.Shards[i].Server, Backup: bsrv,
				BackupAddr: cfg.Shards[h].Addr, BackupPort: bport,
				BackupHost: h,
			}
		}
		b.repl = replica.NewManager(k, cfg.Seed, b.ctrl, pairs)
		b.repl.SetTimeline(cfg.Timeline)
		b.res.ReplOn = true
		b.res.Repl = b.repl
	}
	// The timeline's per-window phase means come from finished spans, so
	// they exist exactly when a tracer runs alongside (both are nil-safe).
	cfg.Tracer.SetTimeline(cfg.Timeline)

	// Resolve every key's shard once, and preload the stores (both
	// replicas, so they start converged at version zero) so the measured
	// window runs at a warm 100% hit rate.
	val := make([]byte, w.ValueBytes)
	for i := range b.keys {
		b.keys[i] = w.Key(i)
		b.keyShard[i] = router.Shard(b.keys[i])
		if srv := cfg.Shards[b.keyShard[i]].Server; srv != nil {
			srv.Preload(b.keys[i], val)
		}
		if bsrv := cfg.Shards[b.keyShard[i]].Backup; bsrv != nil {
			bsrv.Preload(b.keys[i], val)
		}
	}
	for si := range cfg.Shards {
		b.res.PerShard = append(b.res.PerShard, &ShardStats{Shard: si, Name: cfg.Shards[si].Name})
	}
	if b.ctrl != nil && cfg.Admit.Policy == admit.Reroute && b.repl == nil {
		b.keyOwners = make([][]int, w.Keys)
		for i := range b.keys {
			b.keyOwners[i] = router.Owners(b.keys[i], len(cfg.Shards))
		}
	}
	b.initOps()

	// Observability: tap every distinct stack on the request path (client
	// and shard sides — deduplicated, several endpoints can share one
	// stack) and hand the tracer to the stores. The tracer layers over any
	// tap already attached, and none of this runs when tracing is off, so
	// an untraced run's event stream is exactly the seed's.
	if cfg.Tracer != nil {
		tapped := make(map[*netstack.Stack]bool)
		tap := func(st *netstack.Stack) {
			if st == nil || tapped[st] {
				return
			}
			tapped[st] = true
			if st.Tap == nil {
				st.Tap = cfg.Tracer
			} else {
				st.Tap = netstack.Taps{cfg.Tracer, st.Tap}
			}
		}
		for _, cl := range cfg.Clients {
			tap(cl.Node.Stack)
		}
		for _, sh := range cfg.Shards {
			if sh.Server != nil {
				sh.Server.SetTracer(cfg.Tracer)
				tap(sh.Server.Endpoint().Node.Stack)
			}
			if sh.Backup != nil {
				sh.Backup.SetTracer(cfg.Tracer)
				tap(sh.Backup.Endpoint().Node.Stack)
			}
		}
	}

	// One pipelined connection per (client, shard) — plus, with
	// replication on, one per (client, keyspace) to the backup store on
	// the next shard's node, dialed eagerly so failover never pays a
	// handshake mid-outage. tag names the process: s for a primary, b
	// for a backup.
	shardConnTo := func(ci, si, host int, port uint16, tag string) *shardConn {
		sc := &shardConn{
			b: b, ci: ci, admitShard: host, client: cfg.Clients[ci],
			addr: cfg.Shards[host].Addr, port: port,
			q:        sim.NewQueue[*request](k, 0),
			inflight: k.NewResource(maxInflight),
			setVal:   val,
		}
		k.Go(fmt.Sprintf("serve/c%d/%s%d", ci, tag, si), sc.run)
		return sc
	}
	b.conns = make([][]*shardConn, len(cfg.Clients))
	if b.repl != nil {
		b.bconns = make([][]*shardConn, len(cfg.Clients))
	}
	for ci := range cfg.Clients {
		b.conns[ci] = make([]*shardConn, len(cfg.Shards))
		for si := range cfg.Shards {
			b.conns[ci][si] = shardConnTo(ci, si, si, cfg.Shards[si].Port, "s")
		}
		if b.repl != nil {
			b.bconns[ci] = make([]*shardConn, len(cfg.Shards))
			for si := range cfg.Shards {
				b.bconns[ci][si] = shardConnTo(ci, si, (si+1)%len(cfg.Shards), cfg.Shards[si].Backup.Port(), "b")
			}
		}
	}

	// Drivers. Shard connections establish under load: with ARP steered
	// to its own control-plane queue, a cold-start handshake completes in
	// a few RTTs, comfortably inside the warmup window.
	zf := newZipf(w.Keys, zipfTheta)
	if cfg.ClosedWorkers > 0 {
		for ci := range cfg.Clients {
			for wi := 0; wi < cfg.ClosedWorkers; wi++ {
				gen := w.newGenerator(zf, cfg.Seed, fmt.Sprintf("worker/%d/%d", ci, wi))
				smp := cfg.Tracer.Sampler(fmt.Sprintf("worker/%d/%d", ci, wi))
				ci := ci
				k.Go(fmt.Sprintf("serve/worker%d.%d", ci, wi), func(p *sim.Proc) {
					b.closedWorker(p, ci, gen, smp)
				})
			}
		}
	} else {
		if cfg.RatePerSec <= 0 {
			panic("serve: open-loop run needs RatePerSec > 0")
		}
		// One generator per client; the "/0" keeps the stream and process
		// names of the per-client generator index this once carried, so
		// every seeded run stays bit-identical.
		share := cfg.RatePerSec / float64(len(cfg.Clients))
		for ci := range cfg.Clients {
			gen := w.newGenerator(zf, cfg.Seed, fmt.Sprintf("gen/%d/0", ci))
			arr := sim.NewRNG(cfg.Seed, fmt.Sprintf("arrivals/%d/0", ci))
			smp := cfg.Tracer.Sampler(fmt.Sprintf("gen/%d/0", ci))
			ci := ci
			k.Go(fmt.Sprintf("serve/gen%d.0", ci), func(p *sim.Proc) {
				b.openLoop(p, ci, gen, arr, share, smp)
			})
		}
	}

	k.RunUntil(base.Add(cfg.Deadline()))
	b.collect()
	return b.res
}

// openLoop issues requests at Poisson arrivals of the given rate,
// regardless of completions — offered load stays constant even when the
// shards fall behind, which is what exposes the tail.
func (b *bench) openLoop(p *sim.Proc, ci int, gen *generator, arr sim.RNG, rate float64, smp *obs.Sampler) {
	mean := 1 / rate // seconds
	for {
		p.Sleep(sim.Duration(expDuration(&arr, mean) * float64(sim.Second)))
		if p.Now() >= b.measEnd {
			return
		}
		b.issue(p, ci, gen, smp, false)
	}
}

// closedWorker issues the next request as soon as the previous one
// completes (throughput self-limits to 1/latency per worker).
func (b *bench) closedWorker(p *sim.Proc, ci int, gen *generator, smp *obs.Sampler) {
	for p.Now() < b.measEnd {
		if sig := b.issue(p, ci, gen, smp, true); sig != nil {
			sig.Wait(p)
		} else {
			// Shed at the router: the fast-fail comes straight back, so
			// the worker turns around after a client-side beat instead of
			// spinning at one simulated instant.
			p.Sleep(sim.Microsecond)
		}
	}
}

// issue draws one logical request from the generator and enqueues it: a
// plain GET/SET is one request, an operator (ops.go) its wire parts. The
// operator-family draw happens only with operators on, so an ops-off
// stream is unperturbed. It returns the completion signal a closed-loop
// driver waits on; nil means nothing reached a queue (the request was
// shed) or the driver is open-loop.
func (b *bench) issue(p *sim.Proc, ci int, gen *generator, smp *obs.Sampler, closed bool) *sim.Signal {
	now := p.Now()
	var fam nmop.Kind
	var op byte
	var key int
	var sync bool
	if b.ops != nil {
		fam, op, key, sync = gen.nextOps()
	} else {
		op, key, sync = gen.next()
	}
	if fam != 0 {
		return b.issueOps(p, ci, gen, smp, now, fam, key, closed)
	}
	req := &request{op: op, key: key, sync: sync, arrival: now}
	if closed {
		req.done = b.k.NewSignal()
	}
	if smp.Next() {
		req.span = b.cfg.Tracer.Start(now, ci, op)
	}
	if !b.enqueue(p, ci, req) {
		return nil
	}
	return req.done
}

// measured reports whether t (a request's arrival) falls in the measured
// window.
func (b *bench) measured(t sim.Time) bool { return t >= b.measStart && t < b.measEnd }

// enqueue routes one request through admission control (when enabled) to a
// shard connection. With replication on a request whose primary is not
// admitted fails over to the keyspace's backup store — same keys, served
// from the surviving replica — instead of being re-routed to a ring
// neighbor that never held them. It reports false when the request was
// shed — no replica (or, without replication, no candidate shard)
// admitted it.
func (b *bench) enqueue(p *sim.Proc, ci int, req *request) bool {
	req.shard = b.keyShard[req.key]
	inWindow := b.measured(req.arrival)
	if b.repl != nil {
		if !b.ctrl.Allow(req.shard) {
			backupHost := (req.shard + 1) % len(b.cfg.Shards)
			// State, unlike Allow, mutates nothing: failover traffic is
			// judged by the backup host's own (primary-traffic) breaker
			// without consuming its probe budget.
			if b.ctrl.State(backupHost) != admit.Closed {
				return b.shed(req, inWindow)
			}
			req.failover = true
			if inWindow {
				b.res.PerShard[req.shard].FailedOver++
			}
			b.cfg.Timeline.NoteFailedOver(req.arrival)
			if req.op == opGet {
				b.repl.NoteFailoverRead(req.shard, b.keys[req.key])
			}
		}
	} else if b.ctrl != nil {
		target := -1
		if b.ctrl.Allow(req.shard) {
			target = req.shard
		} else if b.cfg.Admit.Policy == admit.Reroute {
			for _, s := range b.keyOwners[req.key][1:] {
				if b.ctrl.Allow(s) {
					target = s
					break
				}
			}
		}
		if target < 0 {
			return b.shed(req, inWindow)
		}
		if target != req.shard {
			b.ctrl.NoteReroute()
			req.shard = target
			if inWindow {
				b.res.PerShard[target].Rerouted++
			}
			b.cfg.Timeline.NoteRerouted(req.arrival)
		}
	}
	if req.span != nil {
		req.span.Shard = req.shard
	}
	if inWindow {
		b.res.PerShard[req.shard].Issued++
	}
	b.res.PerShard[req.shard].IssuedEver++
	b.cfg.Timeline.NoteIssued(req.arrival)
	b.cfg.Timeline.QueueDelta(req.arrival, 1)
	if req.failover {
		b.bconns[ci][req.shard].q.Put(p, req)
	} else {
		b.conns[ci][req.shard].q.Put(p, req)
	}
	return true
}

// shed fast-fails a request no replica or candidate shard admitted,
// charging it to its primary owner. It never reaches the wire, so its
// span ends here. It returns false, enqueue's shed verdict.
func (b *bench) shed(req *request, inWindow bool) bool {
	b.ctrl.NoteShed()
	if inWindow {
		b.res.PerShard[req.shard].Shed++
	}
	b.cfg.Timeline.NoteShed(req.arrival)
	b.cfg.Tracer.Abort(req.span)
	return false
}

// reqBytes is the encoded size of one request on the wire.
func (sc *shardConn) reqBytes(req *request) int {
	key, val := sc.wireKeyVal(req)
	return kvstore.ReqHeaderBytes + len(key) + len(val)
}

// wireKeyVal resolves what one request carries on the wire: an operator
// part ships its encoded payload as the value (and a multi-GET, whose
// keys ride in the payload, an empty key); plain requests keep the
// original GET/SET shape.
func (sc *shardConn) wireKeyVal(req *request) (string, []byte) {
	if req.kind != 0 {
		if req.kind == nmop.KindMultiGet {
			return "", req.payload
		}
		return sc.b.keys[req.key], req.payload
	}
	if req.op == opSet {
		return sc.b.keys[req.key], sc.setVal
	}
	return sc.b.keys[req.key], nil
}

// run is the sender side of a shard connection: dial once, then drain the
// routed queue onto the wire within the pipelining window. With batching
// enabled each flush gathers the backlog already queued (bounded by
// MaxRequests/MaxBytes, optionally lingering up to Window while earlier
// responses are outstanding) so the whole batch rides one Send; the
// pipeline window is then counted in batches, not requests — per-request
// slots would collapse the batch size back to 1 under overload, because
// slots free one response at a time.
func (sc *shardConn) run(p *sim.Proc) {
	conn, err := sc.client.DialConn(p, sc.addr, sc.port)
	if err != nil {
		sc.dead = true
	} else {
		sc.conn = conn
		if t := sc.b.cfg.Tracer; t != nil {
			lip, lport, rip, rport := conn.Tuple()
			sc.flow = t.OpenFlow(lip, lport, rip, rport)
			// An mcnt connection is correlated by stream id rather than
			// the TCP 4-tuple; BindConn registers it when applicable.
			t.BindConn(conn, sc.flow)
		}
		sc.b.k.Go(fmt.Sprintf("%s/rx", p.Name()), sc.receive)
	}
	bc := sc.b.cfg.Batch
	var buf []byte
	var batch []*request
	for {
		req, ok := sc.q.Get(p)
		if !ok {
			return
		}
		sc.b.cfg.Timeline.QueueDelta(p.Now(), -1)
		if sc.dead {
			sc.fail(p, req, false)
			continue
		}
		sc.inflight.Acquire(p)
		if sc.dead {
			sc.inflight.Release()
			sc.fail(p, req, false)
			continue
		}
		req.deq = p.Now()
		batch = append(batch[:0], req)
		size := sc.reqBytes(req)
		for len(batch) < bc.MaxRequests && size < bc.MaxBytes {
			r, ok := sc.q.TryGet()
			if !ok {
				// Nothing queued. Linger only while earlier responses
				// are still in flight; an idle connection flushes
				// immediately so sparse traffic never pays the window.
				if bc.Window <= 0 || len(sc.outstanding) == 0 {
					break
				}
				wait := req.deq.Add(bc.Window).Sub(p.Now())
				if wait <= 0 {
					break
				}
				r, ok, _ = sc.q.GetTimeout(p, wait)
				if !ok {
					break
				}
			}
			sc.b.cfg.Timeline.QueueDelta(p.Now(), -1)
			r.deq = p.Now()
			batch = append(batch, r)
			size += sc.reqBytes(r)
		}
		now := p.Now()
		buf = buf[:0]
		for _, r := range batch {
			r.sent = now
			if sc.b.ctrl != nil {
				sc.b.ctrl.OnSend(sc.admitShard)
			}
			key, val := sc.wireKeyVal(r)
			op := r.op
			if r.failover {
				// The backup fences the dead primary's in-flight forwards
				// by opening a new per-key epoch on flagged writes.
				op |= kvstore.FailoverFlag
			}
			if r.sync && r.op == opSet && sc.b.repl != nil {
				op |= kvstore.SyncFlag
			}
			buf = kvstore.AppendRequest(buf, op, key, val)
			// Every request advances the flow's FIFO sequence (the
			// server counts them all); sampled ones also learn their
			// last byte's stream offset for frame correlation.
			sc.flow.Queued(r.span, int64(len(buf)-1), r.deq, now)
		}
		sc.flow.Advance(len(buf))
		batch[len(batch)-1].eob = true
		if bc.Enabled() && sc.b.measured(now) {
			sc.b.res.BatchSize.Record(int64(len(batch)))
		}
		// FIFO-match bookkeeping must precede Send: on loopback the
		// response can be delivered before Send returns.
		sc.outstanding = append(sc.outstanding, batch...)
		if err := sc.conn.Send(p, buf); err != nil {
			// The receiver drains outstanding (including this batch)
			// when its Recv fails.
			sc.dead = true
		}
	}
}

// receive matches responses to outstanding requests in FIFO order and
// records the per-phase latencies. When the stream ends it fails every
// request still awaiting a response and releases their batches' pipeline
// slots (one per end-of-batch marker still outstanding).
func (sc *shardConn) receive(p *sim.Proc) {
	hdr := make([]byte, kvstore.RespHeaderBytes)
	scratch := make([]byte, 64<<10)
stream:
	for netstack.ReadFull(p, sc.conn, hdr) {
		status, n, _ := kvstore.ParseRespHeader(hdr)
		respBytes := kvstore.RespHeaderBytes + n
		for n > 0 {
			got, ok := sc.conn.Recv(p, scratch[:min(n, len(scratch))])
			if !ok {
				break stream
			}
			n -= got
		}
		req := sc.outstanding[0]
		sc.outstanding = sc.outstanding[1:]
		sc.complete(p, req, status, respBytes)
		// The pipeline window is counted in batches: the slot frees when
		// the batch's last response arrives.
		if req.eob {
			sc.inflight.Release()
		}
	}
	sc.dead = true
	for _, req := range sc.outstanding {
		sc.fail(p, req, true)
		if req.eob {
			sc.inflight.Release()
		}
	}
	sc.outstanding = nil
}

// complete records one finished request.
func (sc *shardConn) complete(p *sim.Proc, req *request, status byte, respBytes int) {
	now := p.Now()
	// A CAS losing its race returns StatusConflict: a valid, successful
	// round trip (the current value comes back), not a service error.
	ok := status == kvstore.StatusOK || status == kvstore.StatusMiss ||
		status == kvstore.StatusConflict
	if req.lop != nil {
		// Logical-op bookkeeping (and, for host fallbacks, the client-side
		// compute charge and RMW write-back chain) runs after the generic
		// per-request accounting below, whatever path returns.
		defer sc.opComplete(p, req, ok, now, respBytes)
	}
	inWin := sc.b.measured(req.arrival)
	if req.span != nil {
		sc.b.cfg.Tracer.Finish(req.span, now, inWin, ok)
	}
	if sc.b.ctrl != nil {
		sc.b.ctrl.OnComplete(sc.admitShard, ok)
	}
	if req.done != nil {
		req.done.Notify()
	}
	if ok {
		sc.b.cfg.Timeline.NoteComplete(now, int64(now.Sub(req.arrival)/sim.Nanosecond))
	} else {
		sc.b.cfg.Timeline.NoteError(now)
	}
	ss := sc.b.res.PerShard[req.shard]
	if ok {
		ss.DoneEver++
	}
	if !inWin {
		return
	}
	if !ok {
		ss.Errors++
		return
	}
	if status == kvstore.StatusMiss && req.op == opGet {
		ss.Misses++
	}
	ss.N++
	total := now.Sub(req.arrival)
	ss.Lat.RecordDuration(total)
	sc.b.res.Total.RecordDuration(total)
	sc.b.res.Queue.RecordDuration(req.deq.Sub(req.arrival))
	sc.b.res.BatchWait.RecordDuration(req.sent.Sub(req.deq))
	sc.b.res.Service.RecordDuration(now.Sub(req.sent))
}

// fail records a request that got no response. A sent request (still
// outstanding when the stream ended) gives the admission plane a matching
// failed completion; an unsent one (dead connection) an error edge, with
// nothing on the wire to pop.
func (sc *shardConn) fail(p *sim.Proc, req *request, sent bool) {
	if c := sc.b.ctrl; c != nil {
		if sent {
			c.OnComplete(sc.admitShard, false)
		} else {
			c.OnError(sc.admitShard)
		}
	}
	sc.b.cfg.Timeline.NoteError(p.Now())
	sc.b.cfg.Tracer.Abort(req.span)
	if req.done != nil {
		req.done.Notify()
	}
	if sc.b.measured(req.arrival) {
		sc.b.res.PerShard[req.shard].Errors++
	}
	if req.lop != nil {
		sc.opComplete(p, req, false, p.Now(), 0)
	}
}

// collect finalizes the result after the kernel reached the deadline.
func (b *bench) collect() {
	r := b.res
	for _, ss := range r.PerShard {
		ss.Unfinished = max(ss.Issued-ss.N-ss.Errors, 0)
		r.N += ss.N
		r.Errors += ss.Errors
		r.Unfinished += ss.Unfinished
		r.Shed += ss.Shed
		r.Rerouted += ss.Rerouted
		r.Misses += ss.Misses
		r.FailedOver += ss.FailedOver
	}
	r.QPS = float64(r.N) / b.cfg.Measure.Seconds()
	if b.ctrl != nil {
		r.AdmitCounters = b.ctrl.Counters()
		r.AdmitEvents = b.ctrl.Events()
	}
	if b.repl != nil {
		r.ReplCounters = b.repl.Counters()
		r.ReplEvents = b.repl.Events()
	}
	if tl := b.cfg.Timeline; tl != nil {
		tl.SetAdmitEvents(r.AdmitEvents)
	}
	b.publish()
}

// publish registers the run's telemetry in the unified metrics registry —
// one named surface over what used to be scattered result-struct fields,
// so an end-of-run snapshot carries the whole serving plane.
func (b *bench) publish() {
	reg := b.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter("serve/completed").Add(b.res.N)
	reg.Counter("serve/errors").Add(b.res.Errors)
	reg.Counter("serve/unfinished").Add(b.res.Unfinished)
	reg.Counter("serve/shed").Add(b.res.Shed)
	reg.Counter("serve/rerouted").Add(b.res.Rerouted)
	reg.Counter("serve/misses").Add(b.res.Misses)
	reg.Counter("serve/failed_over").Add(b.res.FailedOver)
	reg.RegisterHDR("serve/lat/total", &b.res.Total)
	reg.RegisterHDR("serve/lat/queue", &b.res.Queue)
	reg.RegisterHDR("serve/lat/batchwait", &b.res.BatchWait)
	reg.RegisterHDR("serve/lat/service", &b.res.Service)
	reg.RegisterHDR("serve/batch/size", &b.res.BatchSize)
	if b.res.OpsOn {
		for _, fam := range []nmop.Kind{nmop.KindMultiGet, nmop.KindScan, nmop.KindFilter, nmop.KindCAS} {
			t, lat, name := b.opFam(fam)
			pre := "serve/ops/" + name + "/"
			reg.Counter(pre + "issued").Add(t.Issued)
			reg.Counter(pre + "offloaded").Add(t.Offloaded)
			reg.Counter(pre + "host").Add(t.Host)
			reg.Counter(pre + "errors").Add(t.Errors)
			reg.Counter(pre + "wire_reqs").Add(t.WireReqs)
			reg.Counter(pre + "req_bytes").Add(t.ReqBytes)
			reg.Counter(pre + "resp_bytes").Add(t.RespBytes)
			reg.RegisterHDR(pre+"lat", lat)
		}
	}
	for si, ss := range b.res.PerShard {
		pre := fmt.Sprintf("serve/shard/%d/", si)
		reg.Counter(pre + "completed").Add(ss.N)
		reg.Counter(pre + "errors").Add(ss.Errors)
		reg.Counter(pre + "unfinished").Add(ss.Unfinished)
		reg.RegisterHDR(pre+"lat", &ss.Lat)
		if srv := b.cfg.Shards[si].Server; srv != nil {
			srv := srv
			reg.GaugeFunc(pre+"kv/gets", func() int64 { return srv.Gets })
			reg.GaugeFunc(pre+"kv/sets", func() int64 { return srv.Sets })
			reg.GaugeFunc(pre+"kv/misses", func() int64 { return srv.Misses })
			reg.GaugeFunc(pre+"kv/bytes", srv.Bytes)
		}
		if b.ctrl != nil {
			// Breaker state dwell: how long this shard has spent closed,
			// open, and half-open so far. Snapshotted through GaugeFunc so
			// the end-of-run registry snapshot integrates up to the final
			// kernel time, not publish time.
			for i, state := range []string{"closed", "open", "half_open"} {
				reg.GaugeFunc(fmt.Sprintf("admit/shard/%d/dwell/%s", si, state), func() int64 {
					c, o, h := b.ctrl.DwellTimes(si, b.k.Now())
					return int64([3]sim.Duration{c, o, h}[i] / sim.Nanosecond)
				})
			}
		}
	}
	if b.repl != nil {
		b.repl.Publish(reg)
	}
	if t := b.cfg.Tracer; t != nil {
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			reg.RegisterHDR("obs/phase/"+ph.String(), &t.Phases[ph])
		}
		reg.RegisterHDR("obs/total", &t.Total)
		reg.GaugeFunc("obs/spans/started", func() int64 { return t.Started })
		reg.GaugeFunc("obs/spans/finished", func() int64 { return t.Finished })
		reg.GaugeFunc("obs/spans/aborted", func() int64 { return t.Aborted })
		reg.GaugeFunc("obs/spans/dropped", func() int64 { return t.DroppedSpans })
	}
}
