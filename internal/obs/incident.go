package obs

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/sim"
)

// SLO burn-rate monitor and incident attribution. Everything here runs
// post-hoc in Finalize over the per-window integer tallies, so alerts
// and incident reports are pure functions of the (deterministic) event
// stream: the same seed replays the same bytes.

// AlertEvent is one burn-rate monitor transition. T is the closing edge
// of the window that tripped it, in integer picoseconds.
type AlertEvent struct {
	TPs       int64   `json:"t_ps"`
	State     string  `json:"state"` // "firing" or "resolved"
	Window    int     `json:"window"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
}

// Incident is one contiguous firing episode joined against the fault,
// breaker, replication and transport timelines. Durations are
// nanoseconds; -1 marks "not observed" (no fault to attribute, alert
// still firing at run end, no breaker opened).
type Incident struct {
	StartPs       int64   `json:"start_ps"`
	EndPs         int64   `json:"end_ps"`
	Windows       int     `json:"windows"`
	PeakShortBurn float64 `json:"peak_short_burn"`
	Cause         string  `json:"cause"`
	FaultStartPs  int64   `json:"fault_start_ps"`
	FaultEndPs    int64   `json:"fault_end_ps"`
	DetectNs      float64 `json:"detect_ns"`
	RecoverNs     float64 `json:"recover_ns"`
	BurnNs        float64 `json:"burn_ns"`
	BreakerOpenNs float64 `json:"breaker_open_ns"`
	FailoverReads int64   `json:"failover_reads"`
	CreditStalls  int64   `json:"credit_stalls"`
	Resends       int64   `json:"resends"`
	Shed          int64   `json:"shed"`
	Rerouted      int64   `json:"rerouted"`
}

// Alerts returns the burn-rate monitor's event stream (Finalize runs if
// it has not yet).
func (tl *Timeline) Alerts() []AlertEvent {
	tl.Finalize()
	return tl.alerts
}

// Incidents returns the attributed incident list.
func (tl *Timeline) Incidents() []Incident {
	tl.Finalize()
	return tl.incidents
}

// Finalize derives the per-window burn rates, runs the multi-window
// alert state machine, and attributes each firing episode against the
// fault/breaker/replication/transport timelines. Idempotent; hooks must
// not be called after it.
func (tl *Timeline) Finalize() {
	if tl == nil || tl.finalized {
		return
	}
	tl.finalized = true

	n := len(tl.windows)
	if n == 0 {
		return
	}

	// Breaker occupancy: replay the health timeline, recording how many
	// breakers sit open at each window's closing edge.
	tl.fillBreakersOpen()

	// Per-window trailing burns + the firing/resolved state machine.
	shortN := max(1, int(burnShort/interval))
	longN := max(1, int(burnLong/interval))
	firing := false
	fireIdx := -1
	flush := func(endIdx int, resolvedIdx int) {
		tl.incidents = append(tl.incidents, tl.attribute(fireIdx, endIdx, resolvedIdx))
	}
	for i, w := range tl.windows {
		w.ShortBurn = tl.burnOver(i-shortN+1, i)
		w.LongBurn = tl.burnOver(i-longN+1, i)
		edge := int64(tl.start.Add(sim.Duration(i+1) * interval))
		switch {
		case !firing && w.ShortBurn >= fireBurn && w.LongBurn >= longFire:
			firing, fireIdx = true, i
			tl.alerts = append(tl.alerts, AlertEvent{
				TPs: edge, State: "firing", Window: i,
				ShortBurn: w.ShortBurn, LongBurn: w.LongBurn,
			})
		case firing && w.ShortBurn < clearBurn:
			firing = false
			tl.alerts = append(tl.alerts, AlertEvent{
				TPs: edge, State: "resolved", Window: i,
				ShortBurn: w.ShortBurn, LongBurn: w.LongBurn,
			})
			flush(i, i)
		}
	}
	if firing {
		flush(n-1, -1) // still burning at run end
	}
}

// burnOver computes the burn rate of windows [lo, hi]: the bad-request
// fraction over the error budget. Requests that never completed inside
// the SLO path (errors, sheds) are bad; so are completions over the
// latency objective.
func (tl *Timeline) burnOver(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	var bad, total int64
	for i := lo; i <= hi && i < len(tl.windows); i++ {
		w := tl.windows[i]
		bad += w.SLOViol + w.Errors + w.Shed
		total += w.Completed + w.Errors + w.Shed
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / budget
}

// fillBreakersOpen replays the admit health timeline into a per-window
// open-breaker gauge (value at each window's closing edge).
func (tl *Timeline) fillBreakersOpen() {
	var open int64
	ev := 0
	for i, w := range tl.windows {
		edge := tl.start.Add(sim.Duration(i+1) * interval)
		for ev < len(tl.health) && tl.health[ev].T < edge {
			e := tl.health[ev]
			if e.To == "open" {
				open++
			}
			if e.From == "open" {
				open--
			}
			ev++
		}
		w.BreakersOpen = open
	}
}

// attribute joins one firing episode [fireIdx, endIdx] against the fault
// and subsystem timelines. resolvedIdx is -1 when the alert never
// resolved.
func (tl *Timeline) attribute(fireIdx, endIdx, resolvedIdx int) Incident {
	winPs := int64(interval)
	startPs := int64(tl.start) + int64(fireIdx)*winPs
	endPs := int64(tl.start) + int64(endIdx+1)*winPs
	inc := Incident{
		StartPs: startPs, EndPs: endPs,
		Windows:      endIdx - fireIdx + 1,
		Cause:        "unattributed",
		FaultStartPs: -1, FaultEndPs: -1,
		DetectNs: -1, RecoverNs: -1,
		BreakerOpenNs: -1,
		BurnNs:        float64(endPs-startPs) / 1e3,
	}
	for i := fireIdx; i <= endIdx && i < len(tl.windows); i++ {
		w := tl.windows[i]
		if w.ShortBurn > inc.PeakShortBurn {
			inc.PeakShortBurn = w.ShortBurn
		}
		inc.FailoverReads += w.FailedOver
		inc.Shed += w.Shed
		inc.Rerouted += w.Rerouted
	}
	inc.CreditStalls = tl.seriesSum("mcnt/credit_stalls", fireIdx, endIdx)
	inc.Resends = tl.seriesSum("mcnt/resent", fireIdx, endIdx)

	// Cause: the fault whose window overlaps the episode (looking back
	// one short-burn span, since detection trails injection), else the
	// latest fault that started before the episode.
	lookback := startPs - int64(burnShort)
	var cause *FaultWindow
	for i := range tl.faults {
		f := &tl.faults[i]
		if f.StartPs < endPs && f.EndPs > lookback {
			cause = f
			break
		}
	}
	if cause == nil {
		for i := range tl.faults {
			f := &tl.faults[i]
			if f.StartPs <= startPs && (cause == nil || f.StartPs > cause.StartPs) {
				cause = f
			}
		}
	}
	if cause != nil {
		inc.Cause = cause.Name + " offline"
		inc.FaultStartPs, inc.FaultEndPs = cause.StartPs, cause.EndPs
		// Detection latency: firing edge minus fault injection.
		fireEdge := int64(tl.start) + int64(fireIdx+1)*winPs
		inc.DetectNs = float64(fireEdge-cause.StartPs) / 1e3
		if resolvedIdx >= 0 {
			resolveEdge := int64(tl.start) + int64(resolvedIdx+1)*winPs
			inc.RecoverNs = float64(resolveEdge-cause.EndPs) / 1e3
		}
		// First breaker to open at or after the fault.
		for _, e := range tl.health {
			if e.To == "open" && int64(e.T) >= cause.StartPs {
				inc.BreakerOpenNs = float64(int64(e.T)-cause.StartPs) / 1e3
				break
			}
		}
	}
	return inc
}

// msRel renders a picosecond stamp as milliseconds relative to the
// timeline start, one decimal — the incident report's time base.
func (tl *Timeline) msRel(ps int64) string {
	return fmt.Sprintf("%.1f", float64(ps-int64(tl.start))/1e9)
}

// Report renders one line per incident, fixed format, byte-stable
// across replays:
//
//	window [12.0,14.1]ms: p99 burn 46.0x, cause: host/mcn3 offline;
//	breaker open +210.0µs, failover reads 41, credit stalls 9,
//	resends 12, shed 13, rerouted 57, detected +1.2ms, recovered +2.1ms
func (tl *Timeline) Report() string {
	tl.Finalize()
	if len(tl.incidents) == 0 {
		return "no incidents\n"
	}
	var b strings.Builder
	for _, inc := range tl.incidents {
		fmt.Fprintf(&b, "window [%s,%s]ms: p99 burn %.1fx, cause: %s",
			tl.msRel(inc.StartPs), tl.msRel(inc.EndPs), inc.PeakShortBurn, inc.Cause)
		if inc.BreakerOpenNs >= 0 {
			fmt.Fprintf(&b, "; breaker open +%.1fµs", inc.BreakerOpenNs/1e3)
		}
		fmt.Fprintf(&b, ", failover reads %d, credit stalls %d, resends %d, shed %d, rerouted %d",
			inc.FailoverReads, inc.CreditStalls, inc.Resends, inc.Shed, inc.Rerouted)
		if inc.DetectNs >= 0 {
			fmt.Fprintf(&b, ", detected +%.1fms", inc.DetectNs/1e6)
		}
		if inc.RecoverNs >= 0 {
			fmt.Fprintf(&b, ", recovered +%.1fms", inc.RecoverNs/1e6)
		} else {
			b.WriteString(", unrecovered at run end")
		}
		b.WriteString("\n")
	}
	return b.String()
}
