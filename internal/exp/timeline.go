package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/serve"
	"github.com/mcn-arch/mcn/internal/sim"
)

// ServeTimelineVariant is one topology's flap run with the timeline on:
// the ordinary telemetry, the finalized windowed timeline, and the
// detection/burn/recovery headline derived from its first incident
// (-1 marks "not observed": the monitor never fired, or never resolved).
type ServeTimelineVariant struct {
	Name     string
	Result   *serve.Result
	Timeline *obs.Timeline
	// DetectNs is firing-alert edge minus fault injection; BurnNs is the
	// firing episode's length; RecoverNs is resolve edge minus fault end.
	DetectNs, BurnNs, RecoverNs float64
}

// ServeTimelineResult is the continuous-telemetry A/B under the standard
// DIMM flap: the same fault on the mcn5+batch fabric with admission off,
// the re-route policy, and replication — what each protection layer does
// to detection latency, burn duration and recovery time, read off the
// SLO burn-rate monitor instead of whole-run aggregates.
type ServeTimelineResult struct {
	Seed      uint64
	FlapDimm  string
	FlapStart sim.Time
	FlapEnd   sim.Time
	Variants  []*ServeTimelineVariant
}

// ServeTimeline runs the DIMM-flap serving experiment three ways — no
// protection, admission re-route, replication — each with the windowed
// timeline attached, and attributes every burn window to the injected
// fault. The timeline charges no simulated time, so each variant's event
// stream is exactly its untimed twin's; everything here replays
// byte-identically from the seed.
func ServeTimeline(seed uint64) *ServeTimelineResult {
	out := &ServeTimelineResult{Seed: seed}
	variants := []struct {
		name string
		topo Topo
	}{
		{"off", Topo{Fabric: "mcn5", Batch: true}},
		{"admit", Topo{Fabric: "mcn5", Batch: true, Admit: true}},
		{"repl", Topo{Fabric: "mcn5", Batch: true, Repl: true}},
	}
	for _, v := range variants {
		k := sim.NewKernel()
		cfg, rig := v.topo.build(k, seed, 200e3)
		cfg.Measure = serveAdmitMeasure
		fl := rig.flap(k, &cfg)
		out.FlapDimm, out.FlapStart, out.FlapEnd = fl.Name, fl.Start, fl.End
		tl := obs.NewTimeline(k.Now(), obs.TimelineConfig{SLONs: DefaultServeSLONs})
		tl.AddFault(fl.Name, fl.Start, fl.End)
		cfg.Timeline = tl
		res := serve.Run(k, cfg)
		k.Shutdown()
		tl.Finalize()
		tv := &ServeTimelineVariant{
			Name: v.name, Result: res, Timeline: tl,
			DetectNs: -1, BurnNs: -1, RecoverNs: -1,
		}
		if incs := tl.Incidents(); len(incs) > 0 {
			tv.DetectNs = incs[0].DetectNs
			tv.BurnNs = incs[0].BurnNs
			tv.RecoverNs = incs[0].RecoverNs
		}
		out.Variants = append(out.Variants, tv)
	}
	return out
}

// ms renders a nanosecond duration headline field, "-" when unobserved.
func tlMs(ns float64) string {
	if ns < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", ns/1e6)
}

// String renders the per-variant incident reports and the
// detection/burn/recovery headline table.
func (r *ServeTimelineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "continuous telemetry under a DIMM flap: %s offline [%v, %v), mcn5+batch (seed %d)\n",
		r.FlapDimm, r.FlapStart, r.FlapEnd, r.Seed)
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "--- admit=%s ---\n", v.Name)
		b.WriteString(v.Timeline.Report())
	}
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %8s\n", "variant", "detect", "burn", "recover", "alerts")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "%-8s %10s %10s %10s %8d\n",
			v.Name, tlMs(v.DetectNs), tlMs(v.BurnNs), tlMs(v.RecoverNs), len(v.Timeline.Alerts()))
	}
	return b.String()
}
