package main

import (
	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/ethdev"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

// frac is a ratio accumulated over the kernels of one repetition.
type frac struct{ num, den float64 }

func (f *frac) add(num, den float64) { f.num += num; f.den += den }
func (f frac) value() float64        { return ratio(f.num, f.den) }

// hw accumulates the exported counters of the modelled hardware and stack
// layers (sim, cpu, dram, core, ethdev, netstack) after a kernel has run.
// A repetition that runs several kernels (stream's legs, npb-mpi's three
// kernels) adds each; fractions are busy time over capacity time, so they
// stay meaningful across kernels of different length.
type hw struct {
	st sim.KernelStats

	hostCPU, dimmCPU       frac // busy core-seconds / core-seconds
	hostRowHit, dimmRowHit frac // row hits / row accesses
	hostBus, dimmBus       frac // data-bus busy seconds / channel-seconds
	dramBytes              float64

	pollHits, pollRounds, txBusy, hostDelivered, relayedDimm, dimmMsgs, watchdog float64

	nicTxFrames, nicRxDropped float64
	nicBusy                   frac

	ipPkts, ipBytes, drops, arps float64
}

func (h *hw) addKernel(k *sim.Kernel) {
	s := k.Stats()
	h.st.Pushes += s.Pushes
	h.st.WheelPushes += s.WheelPushes
	h.st.Pops += s.Pops
	h.st.StaleWakes += s.StaleWakes
	h.st.ProcWakes += s.ProcWakes
	h.st.SelfWakes += s.SelfWakes
	h.st.Switches += s.Switches
	h.st.Spawns += s.Spawns
	h.st.Shells += s.Shells
}

// addNode folds one machine's cpu, dram and netstack counters in; span is
// the simulated time its kernel covered.
func (h *hw) addNode(n *node.Node, dimm bool, span sim.Duration) {
	cpu, rowHit, bus := &h.hostCPU, &h.hostRowHit, &h.hostBus
	if dimm {
		cpu, rowHit, bus = &h.dimmCPU, &h.dimmRowHit, &h.dimmBus
	}
	cpu.add(n.CPU.Busy.Busy.Seconds(), span.Seconds()*float64(n.CPU.NumCores()))
	for _, ch := range n.Channels {
		rowHit.add(float64(ch.RowHits), float64(ch.RowHits+ch.RowMiss))
		bus.add(ch.BusyTime.Busy.Seconds(), span.Seconds())
	}
	h.dramBytes += float64(n.TotalDRAMBytes())
	h.ipPkts += float64(n.Stack.IPTx.N)
	h.ipBytes += float64(n.Stack.IPTx.Total)
	h.drops += float64(n.Stack.Drops)
	h.arps += float64(n.Stack.ARPRequests)
}

// addServer folds an MCN server in: host, DIMMs and both driver sides.
func (h *hw) addServer(s *cluster.McnServer) {
	span := sim.Duration(s.K.Now())
	h.addNode(s.Host.Node, false, span)
	d := s.Host.Driver
	h.pollHits += float64(d.PollHits)
	h.pollRounds += float64(d.PollRounds)
	h.txBusy += float64(d.TxBusy)
	h.hostDelivered += float64(d.DeliveredHost)
	h.relayedDimm += float64(d.RelayedDimm)
	h.watchdog += float64(d.Recov.WatchdogKicks)
	for _, m := range s.Mcns {
		h.addNode(m.Node, true, span)
		h.txBusy += float64(m.Drv.TxBusy)
		h.dimmMsgs += float64(m.Drv.TxMsgs + m.Drv.RxMsgs)
		h.watchdog += float64(m.Drv.Recov.WatchdogKicks)
	}
}

// addEth folds a 10GbE cluster in: every node and its NIC.
func (h *hw) addEth(c *cluster.EthCluster) {
	span := sim.Duration(c.K.Now())
	for _, n := range c.Nodes {
		h.addNode(n.Node, false, span)
		h.addNIC(n.NIC, span)
	}
}

func (h *hw) addNIC(n *ethdev.NIC, span sim.Duration) {
	h.nicTxFrames += float64(n.TxFrames)
	h.nicRxDropped += float64(n.RxDropped)
	h.nicBusy.add(n.Busy.Busy.Seconds(), span.Seconds())
}

// layers renders the counters; ops is the workload's unit-operation count
// (kv: completed requests, stream: frames, npb-mpi: MPI messages).
func (h *hw) layers(ops float64) values {
	st := h.st
	return values{
		"sim.events":             float64(st.Pops),
		"sim.events_per_req":     ratio(float64(st.Pops), ops),
		"sim.switches_per_event": ratio(float64(st.Switches), float64(st.Pops)),
		"sim.spawns_per_req":     ratio(float64(st.Spawns), ops),
		"sim.self_wake_frac":     ratio(float64(st.SelfWakes), float64(st.ProcWakes)),
		"sim.stale_wake_frac":    ratio(float64(st.StaleWakes), float64(st.Pops)),
		"sim.shell_reuse_frac":   1 - ratio(float64(st.Shells), float64(st.Spawns)),

		"cpu.host_busy_frac": h.hostCPU.value(),
		"cpu.dimm_busy_frac": h.dimmCPU.value(),

		"dram.host_row_hit_frac": h.hostRowHit.value(),
		"dram.dimm_row_hit_frac": h.dimmRowHit.value(),
		"dram.host_busy_frac":    h.hostBus.value(),
		"dram.dimm_busy_frac":    h.dimmBus.value(),
		"dram.bytes":             h.dramBytes,

		"core.poll_hit_frac":       ratio(h.pollHits, h.pollRounds),
		"core.poll_rounds_per_req": ratio(h.pollRounds, ops),
		"core.tx_busy_retries":     h.txBusy,
		"core.host_delivered":      h.hostDelivered,
		"core.relayed_dimm":        h.relayedDimm,
		"core.dimm_msgs_per_req":   ratio(h.dimmMsgs, ops),
		"core.watchdog_recoveries": h.watchdog,

		"ethdev.tx_frames":     h.nicTxFrames,
		"ethdev.rx_dropped":    h.nicRxDropped,
		"ethdev.nic_busy_frac": h.nicBusy.value(),

		"netstack.ip_pkts_per_req":  ratio(h.ipPkts, ops),
		"netstack.ip_bytes_per_req": ratio(h.ipBytes, ops),
		"netstack.drops":            h.drops,
		"netstack.arp_requests":     h.arps,
	}
}
