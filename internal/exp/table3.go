package exp

import (
	"fmt"
	"strings"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/ethdev"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/obs"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Table3Row is one row of Table III: the end-to-end latency breakdown for
// transmitting and receiving a single TCP packet. Stage values are
// normalized to the 10GbE row's total for the same packet size, as in the
// paper.
type Table3Row struct {
	SizeBytes int
	Type      string // "10GbE" or "MCN-0"
	DriverTX  float64
	DMATX     float64
	PHY       float64
	DMARX     float64
	DriverRX  float64
	Total     float64
	// Stages holds the raw Driver-TX, DMA-TX, PHY, DMA-RX and Driver-RX
	// durations the normalized columns are computed from.
	Stages   [5]sim.Duration
	RawTotal sim.Duration
}

// Table3Result is the full table.
type Table3Result struct {
	Rows []Table3Row
}

func (t *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table III: end-to-end single-packet latency breakdown (normalized to 10GbE total per size)")
	fmt.Fprintf(&b, "%-7s %-6s %10s %8s %8s %8s %10s %8s %12s\n",
		"size", "type", "Driver-TX", "DMA-TX", "PHY", "DMA-RX", "Driver-RX", "Total", "(raw)")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-7d %-6s %10.3f %8.3f %8.3f %8.3f %10.3f %8.3f %12v\n",
			r.SizeBytes, r.Type, r.DriverTX, r.DMATX, r.PHY, r.DMARX, r.DriverRX, r.Total, r.RawTotal)
	}
	return b.String()
}

// Table3 regenerates Table III for 1.5KB and 9KB TCP packets. Every stage
// boundary is a frame-tap site the traced packet crossed.
func Table3() *Table3Result {
	res := &Table3Result{}
	for _, size := range []int{1460, 8960} {
		eth := traceEth(size)
		ethTotal := eth[0] + eth[1] + eth[2] + eth[3] + eth[4]
		n := func(d sim.Duration) float64 { return float64(d) / float64(ethTotal) }
		for _, r := range []struct {
			typ string
			st  [5]sim.Duration
		}{{"10GbE", eth}, {"MCN-0", traceMcn(size)}} {
			total := r.st[0] + r.st[1] + r.st[2] + r.st[3] + r.st[4]
			res.Rows = append(res.Rows, Table3Row{
				SizeBytes: size, Type: r.typ,
				DriverTX: n(r.st[0]), DMATX: n(r.st[1]), PHY: n(r.st[2]),
				DMARX: n(r.st[3]), DriverRX: n(r.st[4]), Total: n(total),
				Stages: r.st, RawTotal: total,
			})
		}
	}
	return res
}

// tracePacket sends one TCP packet of payload bytes from one stack to
// another and returns when it crossed each of sites, read from rec — a
// capture of frames of at least 1000 bytes, so of that packet alone,
// which the caller attached to the taps on its path. A site crossed more
// than once keeps its latest crossing.
func tracePacket(k *sim.Kernel, from, to *netstack.Stack, toIP netstack.IP, payload int, rec *obs.Recorder, sites ...netstack.TapSite) []sim.Time {
	rec.Filter = func(r obs.Record) bool { return r.Len >= 1000 }
	k.Go("server", func(p *sim.Proc) {
		l, _ := to.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, payload)
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := from.Connect(p, toIP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, payload)
	})
	k.RunUntil(sim.Time(sim.Second))
	k.Shutdown()
	at := make([]sim.Time, len(sites))
	for i, site := range sites {
		for _, r := range rec.Records {
			if r.Dir == site.String() {
				at[i] = r.At
			}
		}
		if at[i] == 0 {
			panic(fmt.Sprintf("table3: the packet never crossed %v", site))
		}
	}
	return at
}

// traceEth traces one TCP packet across a 10GbE link through the sender's
// stack, both NICs and the receiver's stack. Jumbo-frame MTU is used for
// payloads above 1500 so the packet stays a single frame, as in the paper.
func traceEth(payload int) [5]sim.Duration {
	k := sim.NewKernel()
	a := node.NewHost(k, node.HostConfig("a"))
	b := node.NewHost(k, node.HostConfig("b"))
	b.Stack.SharePool(a.Stack) // the wire hands a's frames to b
	link := ethdev.NewLink(k, sim.Microsecond)
	nicCfg := func(name string, id uint32) ethdev.Config {
		c := ethdev.DefaultConfig(name, netstack.NewMAC(id))
		if payload > 1460 {
			c.MTU = 9000
		}
		c.TSO = false // a single packet; keep the path simple
		return c
	}
	nicA := ethdev.New(k, a.CPU, a.Channels[0], a.Stack, nicCfg("a/eth0", 1), link)
	nicB := ethdev.New(k, b.CPU, b.Channels[0], b.Stack, nicCfg("b/eth0", 2), link)
	ia := a.Stack.AddIface(nicA, netstack.IPv4(10, 0, 0, 1), netstack.Mask24)
	ib := b.Stack.AddIface(nicB, netstack.IPv4(10, 0, 0, 2), netstack.Mask24)
	ia.Neighbors[netstack.IPv4(10, 0, 0, 2)] = nicB.MAC()
	ib.Neighbors[netstack.IPv4(10, 0, 0, 1)] = nicA.MAC()
	rec := obs.NewRecorder(0)
	a.Stack.Tap, nicA.Tap, nicB.Tap, b.Stack.Tap = rec, rec, rec, rec
	at := tracePacket(k, a.Stack, b.Stack, netstack.IPv4(10, 0, 0, 2), payload, rec,
		netstack.TapTx, netstack.TapDMATx, netstack.TapWireStart,
		netstack.TapWireEnd, netstack.TapDMARx, netstack.TapRx)
	var st [5]sim.Duration
	for i := range st {
		st[i] = at[i+1].Sub(at[i])
	}
	return st
}

// traceMcn traces one TCP packet from an MCN node to the host under the
// mcn0 configuration (with the MTU raised for the 9KB row, as Table III
// isolates packet size, not the other optimizations). MCN has no DMA or
// PHY stages: the memory channel is the PHY and its time is inside the
// driver copies, so Driver-TX ends when the DIMM driver's T3 lands the
// message in the SRAM TX ring and Driver-RX (polling wait included) runs
// from there to the host stack.
func traceMcn(payload int) [5]sim.Duration {
	k := sim.NewKernel()
	opts := core.MCN0.Options()
	if payload > 1460 {
		opts.MTU = 9000
	}
	s := cluster.NewMcnServer(k, 1, opts)
	rec := obs.NewRecorder(0)
	s.Mcns[0].Stack.Tap, s.Mcns[0].Drv.ChanTap, s.Host.Stack.Tap = rec, rec, rec
	at := tracePacket(k, s.Mcns[0].Stack, s.Host.Stack, s.Host.HostMcnIP(), payload, rec,
		netstack.TapTx, netstack.TapDimmPush, netstack.TapRx)
	return [5]sim.Duration{0: at[1].Sub(at[0]), 4: at[2].Sub(at[1])}
}
