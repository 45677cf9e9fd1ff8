package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/kvstore"
	"github.com/mcn-arch/mcn/internal/mcnt"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Topo is one serving topology: the fabric under the ServeShards kvstore
// shards plus the planes switched on over it. It is the single
// configuration value every serving experiment is stated in (the paper's
// Table I ladder, extended by the serving PRs' planes); the text form
// ("mcn5+batch+repl") exists only at the command line and in artifacts,
// and ParseTopo is the one place it is read.
type Topo struct {
	// Fabric is "mcn0" or "mcn5" (one MCN server at either optimization
	// extreme), "10gbe" (a scale-out rack) or "scaleup" (one big box).
	Fabric string
	Batch  bool // request batching on the shard connections (DefaultServeBatch)
	Admit  bool // admission-control plane (DefaultServeAdmit)
	Repl   bool // primary/backup replication (DefaultServeRepl); implies Admit
	Mcnt   bool // memory-channel hops on the mcnt transport instead of TCP
	Ops    bool // near-memory operator traffic mixed in (DefaultServeOps)
}

// The topology grammar: FABRIC[+SUFFIX...], suffixes in any order.
// ParseTopo, Topo.String and the commands' -topo help are all driven by
// these two tables.
var (
	topoFabrics = []struct {
		name    string
		channel bool // has memory-channel hops for "+mcnt" to ride
	}{
		{"mcn0", true}, {"mcn5", true}, {"10gbe", false}, {"scaleup", false},
	}
	topoSuffixes = []struct {
		name, help string
		on         func(*Topo) *bool
	}{
		{"batch", "request batching", func(t *Topo) *bool { return &t.Batch }},
		{"admit", "admission control", func(t *Topo) *bool { return &t.Admit }},
		{"repl", "primary/backup replication, implies +admit", func(t *Topo) *bool { return &t.Repl }},
		{"mcnt", "MCN-native transport on memory-channel hops, mcn fabrics only", func(t *Topo) *bool { return &t.Mcnt }},
		{"ops", "near-memory operator traffic", func(t *Topo) *bool { return &t.Ops }},
	}
)

// TopoGrammar is the one-line statement of what ParseTopo accepts.
func TopoGrammar() string {
	var fabrics, suffixes []string
	for _, f := range topoFabrics {
		fabrics = append(fabrics, f.name)
	}
	for _, s := range topoSuffixes {
		suffixes = append(suffixes, fmt.Sprintf("+%s (%s)", s.name, s.help))
	}
	return "FABRIC[+SUFFIX...]: FABRIC is one of " + strings.Join(fabrics, ", ") +
		"; SUFFIX, in any order, any of " + strings.Join(suffixes, ", ")
}

// ParseTopo reads the text form of a topology. It rejects an unknown
// fabric, an unknown or repeated suffix, and "+mcnt" on a fabric with no
// memory channel.
func ParseTopo(s string) (Topo, error) {
	parts := strings.Split(s, "+")
	t := Topo{Fabric: parts[0]}
	channel, known := false, false
	for _, f := range topoFabrics {
		if f.name == t.Fabric {
			channel, known = f.channel, true
		}
	}
	if !known {
		return Topo{}, fmt.Errorf("topology %q: unknown fabric %q", s, t.Fabric)
	}
	for _, p := range parts[1:] {
		on := t.suffix(p)
		if on == nil {
			return Topo{}, fmt.Errorf("topology %q: unknown suffix +%s", s, p)
		}
		if *on {
			return Topo{}, fmt.Errorf("topology %q: suffix +%s repeated", s, p)
		}
		*on = true
	}
	if t.Mcnt && !channel {
		return Topo{}, fmt.Errorf("topology %q: +mcnt needs a memory channel, %s has none", s, t.Fabric)
	}
	return t, nil
}

// suffix returns the plane the named suffix switches on, nil if there is
// no such suffix.
func (t *Topo) suffix(name string) *bool {
	for _, suf := range topoSuffixes {
		if suf.name == name {
			return suf.on(t)
		}
	}
	return nil
}

// String renders the canonical text form: the fabric, then the enabled
// suffixes in grammar-table order. ParseTopo(t.String()) == t.
func (t Topo) String() string {
	s := t.Fabric
	for _, suf := range topoSuffixes {
		if *suf.on(&t) {
			s += "+" + suf.name
		}
	}
	return s
}

// serveWorkload is the key and operation mix every sweep point runs.
var serveWorkload = serve.Workload{Keys: 4000, ValueBytes: 128}

// rig is the set of handles a built topology exposes beside its
// serve.Config: inject arms a fault plan on the fabric, observe wires the
// fabric's driver-level observation points (the MCN SRAM channel taps,
// and the mcnt frame tap when the transport is on) into a tracer — a
// no-op on fabrics without an MCN channel, since serve.Run wires the
// stack and kvstore taps itself — and fab is the attached mcnt fabric
// (nil when the shard connections ride TCP).
type rig struct {
	inject  func(*faults.Injector)
	observe func(*obs.Tracer)
	fab     *mcnt.Fabric
}

// build constructs the topology on k and returns the config of one sweep
// point at the given offered load: the shared workload/run shape, the
// shard and client sides of the fabric, and every plane the topology
// switches on. Every fabric exposes ServeShards kvstore shards. With Mcnt
// the mcnt fabric is attached and installed as every endpoint's
// transport, so the shard connections ride the credit-based protocol
// instead of TCP.
func (t Topo) build(k *sim.Kernel, seed uint64, rate float64) (serve.Config, rig) {
	cfg := serve.Config{
		Seed:       seed,
		Workload:   serveWorkload,
		RatePerSec: rate,
		Warmup:     sim.Millisecond,
		Measure:    5 * sim.Millisecond,
		Drain:      2 * sim.Millisecond,
	}
	r := rig{inject: func(*faults.Injector) {}, observe: func(*obs.Tracer) {}}
	switch t.Fabric {
	case "mcn0", "mcn5":
		opts := core.MCN0.Options()
		if t.Fabric == "mcn5" {
			opts = core.MCN5.Options()
		}
		s := cluster.NewMcnServer(k, ServeShards, opts)
		if t.Mcnt {
			r.fab = mcnt.Attach(k, s.Host, mcnt.DefaultParams())
		}
		eps := s.Endpoints()
		if r.fab != nil {
			for i := range eps {
				eps[i].Transport = r.fab.TransportFor(eps[i].Node)
			}
		}
		for _, ep := range eps[1:] {
			srv := kvstore.NewServer(k, ep, 11211)
			cfg.Shards = append(cfg.Shards, serve.Shard{Name: ep.Node.Name, Addr: ep.IP, Port: 11211, Server: srv})
		}
		cfg.Clients = eps[:1]
		r.inject = s.InjectFaults
		r.observe = func(tr *obs.Tracer) {
			s.Host.Driver.ChanTap = tr
			for _, m := range s.Mcns {
				m.Drv.ChanTap = tr
			}
			if r.fab != nil {
				r.fab.SetTap(tr)
			}
		}
	case "10gbe":
		c := cluster.NewEthCluster(k, ServeShards+1, node.HostConfig(""))
		eps := c.Endpoints()
		for _, ep := range eps[1:] {
			srv := kvstore.NewServer(k, ep, 11211)
			cfg.Shards = append(cfg.Shards, serve.Shard{Name: ep.Node.Name, Addr: ep.IP, Port: 11211, Server: srv})
		}
		cfg.Clients = eps[:1]
		r.inject = c.InjectFaults
	case "scaleup":
		h := cluster.NewScaleUp(k, 16)
		ep := cluster.Endpoint{Node: h.Node, IP: netstack.Loopback}
		for i := 0; i < ServeShards; i++ {
			port := uint16(11211 + i)
			srv := kvstore.NewServer(k, ep, port)
			cfg.Shards = append(cfg.Shards, serve.Shard{
				Name: fmt.Sprintf("lo:%d", port), Addr: netstack.Loopback, Port: port, Server: srv,
			})
		}
		cfg.Clients = []cluster.Endpoint{ep}
	}
	if len(cfg.Shards) == 0 || t.Mcnt != (r.fab != nil) {
		// ParseTopo rejects both; only a hand-written literal gets here.
		panic(fmt.Sprintf("exp: invalid serve topology %+v", t))
	}
	if t.Batch {
		cfg.Batch = DefaultServeBatch
	}
	if t.Admit || t.Repl {
		cfg.Admit = DefaultServeAdmit
	}
	if t.Repl {
		cfg.Repl = DefaultServeRepl
	}
	if t.Ops {
		cfg.Ops = DefaultServeOps
	}
	return cfg, r
}

// flap turns cfg into the standard faulted run every DIMM-flap experiment
// shares and arms its fault plan: host/mcn3 offline for 2ms, starting 1ms
// into the measured window; a drain with room for the RTO-driven recovery
// after it; and, when replication is on, every 8th SET synchronous, so
// the flap also lands on the sync-write path. Call it after the last edit
// to cfg.Warmup.
func (r rig) flap(k *sim.Kernel, cfg *serve.Config) faults.DimmFlap {
	cfg.Drain = 20 * sim.Millisecond
	if cfg.Repl.Enabled() {
		cfg.Workload.SyncEvery = 8
	}
	start := k.Now().Add(cfg.Warmup).Add(sim.Millisecond)
	fl := faults.DimmFlap{Name: "host/mcn3", Start: start, End: start.Add(2 * sim.Millisecond)}
	r.inject(faults.New(faults.Plan{Seed: cfg.Seed, DimmFlaps: []faults.DimmFlap{fl}}))
	return fl
}
