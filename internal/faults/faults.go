// Package faults is the deterministic fault-injection subsystem: a Plan
// describes what can fail (frame loss, bit-flip corruption, loss bursts,
// port flaps, lost ALERT_N/rx-IRQ edges, memory-channel message loss,
// whole-DIMM offline windows) and an Injector hands per-site decision
// streams to the layers that host the hook points (ethdev.Link, the
// switch, the MCN drivers).
//
// Every decision is drawn from a sim.RNG stream keyed off the plan seed
// and the site name, so a run replays exactly: the simulation kernel is
// deterministic by construction, each site consumes its own stream, and no
// wall-clock or global randomness is involved anywhere. Two runs with the
// same seed produce the same drops at the same simulated instants.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"github.com/mcn-arch/mcn/internal/sim"
)

// Window is a named carrier-flap interval: every frame crossing the named
// link site inside [Start, End) is lost.
type Window struct {
	Site       string
	Start, End sim.Time
}

// DimmFlap takes the named MCN DIMM offline for [Start, End): the host side
// of the memory channel stops responding, alert/IRQ edges are lost, and the
// host driver's liveness probe marks the virtual netdev carrier-down until
// the window closes.
type DimmFlap struct {
	Name       string // core.Dimm name, e.g. "host/mcn1"
	Start, End sim.Time
}

// Plan describes one run's fault injection. The zero value injects nothing;
// probabilities are per frame/message/edge in [0, 1].
type Plan struct {
	// Seed keys every decision stream. Two runs of the same topology and
	// workload with the same plan are bit-identical.
	Seed uint64

	// Ethernet link and switch-port faults.
	LinkDropProb    float64  // random single-frame loss
	LinkCorruptProb float64  // random bit-flip (caught by the RX FCS verify)
	BurstLen        int      // a drop extends to this many consecutive frames
	PortFlaps       []Window // carrier-down windows by link site name

	// Memory-channel faults: an MCN message hit by channel corruption is
	// detected by ECC/CRC and discarded by the driver, exactly like a
	// bad-FCS Ethernet frame.
	McnLossProb float64

	// Control-edge faults: a suppressed edge models a lost interrupt. The
	// ring data survives; only the wakeup vanishes, which is what the
	// driver watchdogs exist to recover.
	AlertSuppressProb float64 // ALERT_N edges (MCN tx-poll toward the host)
	RxIRQSuppressProb float64 // rx-poll IRQ edges (host toward the MCN node)

	// Whole-DIMM offline windows.
	DimmFlaps []DimmFlap
}

// Injector owns the per-site decision streams and counters for one
// simulation run.
type Injector struct {
	Plan Plan

	sites map[string]*Site
	names []string
}

// New creates an injector for the plan. Attach sites to components (or use
// the cluster/core InjectFaults helpers) before running the simulation.
func New(plan Plan) *Injector {
	return &Injector{Plan: plan, sites: make(map[string]*Site)}
}

// Verdict is a per-frame injection decision.
type Verdict int

const (
	// Pass delivers the frame untouched.
	Pass Verdict = iota
	// Drop loses the frame silently.
	Drop
	// Corrupt flips a bit; the receiver's FCS verify will reject it.
	Corrupt
)

// Site is one named injection point with its own PRNG stream and counters.
type Site struct {
	r        sim.RNG
	drop     float64
	corrupt  float64
	suppress float64
	burst    int
	left     int // remaining frames of an active loss burst
	flaps    []Window

	// C counts what this site has inflicted.
	C Counters
}

// Counters records the fault events one injection site has inflicted on
// its layer, in one shape for every layer so determinism tests can
// compare snapshots across runs.
type Counters struct {
	Site        string
	Drops       int64 // frames/messages randomly lost
	BurstDrops  int64 // additional losses inside a loss burst
	FlapDrops   int64 // losses inside a carrier-flap window
	Corruptions int64 // bit-flips injected (caught by FCS/CRC at RX)
	Suppressed  int64 // interrupt/alert edges swallowed
}

// String renders the counters compactly.
func (f *Counters) String() string {
	return fmt.Sprintf("%s: drop=%d burst=%d flap=%d corrupt=%d suppressed=%d",
		f.Site, f.Drops, f.BurstDrops, f.FlapDrops, f.Corruptions, f.Suppressed)
}

func (in *Injector) site(name string) *Site {
	if s, ok := in.sites[name]; ok {
		return s
	}
	s := &Site{r: sim.NewRNG(in.Plan.Seed, name)}
	s.C.Site = name
	in.sites[name] = s
	in.names = append(in.names, name)
	return s
}

// LinkSite returns (creating on first use) the fault site for a named
// Ethernet link or switch port, configured from the plan's link fields and
// any PortFlaps windows matching the name.
func (in *Injector) LinkSite(name string) *Site {
	s := in.site(name)
	s.drop = in.Plan.LinkDropProb
	s.corrupt = in.Plan.LinkCorruptProb
	s.burst = in.Plan.BurstLen
	for _, w := range in.Plan.PortFlaps {
		if w.Site == name {
			s.flaps = append(s.flaps, w)
		}
	}
	return s
}

// McnSite returns the message-loss site for one DIMM's memory channel.
func (in *Injector) McnSite(name string) *Site {
	s := in.site(name)
	s.drop = in.Plan.McnLossProb
	return s
}

// EdgeSite returns an interrupt-edge suppression site with the given
// probability (AlertSuppressProb or RxIRQSuppressProb).
func (in *Injector) EdgeSite(name string, prob float64) *Site {
	s := in.site(name)
	s.suppress = prob
	return s
}

// Frame decides the fate of one frame crossing the site at the given time.
func (s *Site) Frame(now sim.Time) Verdict {
	for _, w := range s.flaps {
		if now >= w.Start && now < w.End {
			s.C.FlapDrops++
			return Drop
		}
	}
	if s.left > 0 {
		s.left--
		s.C.BurstDrops++
		return Drop
	}
	if s.drop > 0 && s.r.Float64() < s.drop {
		s.C.Drops++
		if s.burst > 1 {
			s.left = s.burst - 1
		}
		return Drop
	}
	if s.corrupt > 0 && s.r.Float64() < s.corrupt {
		s.C.Corruptions++
		return Corrupt
	}
	return Pass
}

// Message reports whether one MCN message is lost to channel corruption
// (ECC-detected, so the driver discards it).
func (s *Site) Message() bool {
	if s.drop > 0 && s.r.Float64() < s.drop {
		s.C.Drops++
		return true
	}
	return false
}

// SuppressEdge reports whether one interrupt/alert edge is lost.
func (s *Site) SuppressEdge() bool {
	if s.suppress > 0 && s.r.Float64() < s.suppress {
		s.C.Suppressed++
		return true
	}
	return false
}

// CorruptCopy returns data with one PRNG-chosen bit flipped, leaving the
// original untouched (other references to the frame must still see the
// clean bytes).
func (s *Site) CorruptCopy(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	bit := s.r.Intn(len(buf) * 8)
	buf[bit/8] ^= 1 << (bit % 8)
	return buf
}

// Counters returns every site's fault counters, sorted by site name.
func (in *Injector) Counters() []*Counters {
	names := append([]string(nil), in.names...)
	sort.Strings(names)
	out := make([]*Counters, 0, len(names))
	for _, n := range names {
		out = append(out, &in.sites[n].C)
	}
	return out
}

// Totals sums the fault counters across all sites.
func (in *Injector) Totals() Counters {
	t := Counters{Site: "total"}
	for _, c := range in.Counters() {
		t.Drops += c.Drops
		t.BurstDrops += c.BurstDrops
		t.FlapDrops += c.FlapDrops
		t.Corruptions += c.Corruptions
		t.Suppressed += c.Suppressed
	}
	return t
}

// Summary renders every site's counters in deterministic order; two runs
// with the same seed must produce byte-identical summaries.
func (in *Injector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault injection (seed %d):\n", in.Plan.Seed)
	for _, c := range in.Counters() {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	return b.String()
}
