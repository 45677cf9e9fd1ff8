// Package node assembles simulated machines from the substrate packages:
// a host server (multi-core CPU, several DDR4 channels, network stack,
// optionally a 10GbE NIC and an MCN host driver) and MCN nodes (the
// mobile-class processor on each MCN DIMM with its private local memory
// channel). Parameters default to Table II of the paper.
package node

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/ethdev"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Config describes one machine's compute and memory resources.
type Config struct {
	Name     string
	Cores    int
	FreqHz   float64
	Channels int
	DRAM     dram.Config
	OS       cpu.OSCosts
	Proto    netstack.ProtoCosts
}

// HostConfig returns the Table II host: 8 cores at 3.4GHz, DDR4-3200.
func HostConfig(name string) Config {
	return Config{
		Name:     name,
		Cores:    8,
		FreqHz:   sim.GHz(3.4),
		Channels: 2,
		DRAM:     dram.DDR4_3200(),
		OS:       cpu.DefaultOSCosts(),
		Proto:    netstack.DefaultProtoCosts(),
	}
}

// McnConfig returns the Table II MCN processor: 4 cores at 2.45GHz with one
// private memory channel.
func McnConfig(name string) Config {
	return Config{
		Name:     name,
		Cores:    4,
		FreqHz:   sim.GHz(2.45),
		Channels: 1,
		DRAM:     dram.DDR4_3200(),
		OS:       cpu.DefaultOSCosts(),
		Proto:    netstack.DefaultProtoCosts(),
	}
}

// ContuttoConfig returns the proof-of-concept prototype's MCN processor: a
// single NIOS II soft core at 266MHz with DDR3-1066 DIMMs (Sec. V).
func ContuttoConfig(name string) Config {
	return Config{
		Name:     name,
		Cores:    1,
		FreqHz:   266e6,
		Channels: 1,
		DRAM:     dram.DDR3_1066(),
		OS:       cpu.DefaultOSCosts(),
		Proto:    netstack.DefaultProtoCosts(),
	}
}

// Prototype is the paper's proof-of-concept system (Sec. V-VI-C): an IBM
// POWER8 S824L host with an experimental buffered DIMM attached through
// the Differential Memory Interface — a Stratix V FPGA carrying a NIOS II
// soft processor at 266MHz, BRAM for the MCN SRAM buffer, and two
// DDR3-1066 DIMMs. Its purpose matches the paper's: showing that the MCN
// drivers and an unmodified MPI run across a host and an extremely weak
// MCN processor, not producing performance numbers.
type Prototype struct {
	K    *sim.Kernel
	Host *Host
	Nios *McnNode
}

// NewContutto builds the prototype: one host, one FPGA MCN DIMM running
// the baseline (mcn0) driver stack.
func NewContutto(k *sim.Kernel) *Prototype {
	h := NewHost(k, HostConfig("power8"))
	mcns := h.AttachMCN(1, core.MCN0.Options(), ContuttoConfig("nios2"))
	d := mcns[0].Dimm
	// FPGA-grade interface: the soft MCN interface and Avalon interconnect
	// are an order of magnitude slower than the ASIC target.
	d.HostLat = 150 * sim.Nanosecond
	d.McnLat = 200 * sim.Nanosecond
	d.McnBW = sim.GBps(0.8)
	return &Prototype{K: k, Host: h, Nios: mcns[0]}
}

// Node is one simulated machine.
type Node struct {
	K        *sim.Kernel
	Name     string
	CPU      *cpu.CPU
	Stack    *netstack.Stack
	Channels []*dram.Channel
	copyIdx  int
}

// New builds a node from a config.
func New(k *sim.Kernel, cfg Config) *Node {
	n := &Node{K: k, Name: cfg.Name}
	n.CPU = cpu.New(k, cfg.Name, cfg.Cores, cfg.FreqHz, cfg.OS)
	n.Stack = netstack.NewStack(k, n.CPU, cfg.Name, cfg.Proto)
	for i := 0; i < cfg.Channels; i++ {
		n.Channels = append(n.Channels, dram.NewChannel(k, cfg.DRAM))
	}
	// Bulk copies run through the memory system: a read and a write
	// stream on a rotating channel, with the core held.
	n.Stack.Copy = func(p *sim.Proc, bytes int) {
		n.CPU.ExecWhile(p, func() { n.MemMove(p, bytes) })
	}
	return n
}

// MemMove charges a memory-to-memory copy of the given size (read+write)
// on the node's channels.
func (n *Node) MemMove(p *sim.Proc, bytes int) {
	ch := n.Channels[n.copyIdx%len(n.Channels)]
	n.copyIdx++
	ch.Read(p, 0x2000_0000, bytes)
	ch.Write(p, 0x3000_0000, bytes)
}

// MemStream charges a pure streaming access (the roofline memory term of a
// compute phase) spread across the node's channels.
func (n *Node) MemStream(p *sim.Proc, bytes int64, write bool) {
	nch := len(n.Channels)
	per := bytes / int64(nch)
	if per <= 0 {
		per = bytes
		nch = 1
	}
	// The stream touches all channels; charging them sequentially within
	// one rank models one rank's serial access pattern while still
	// creating contention with other ranks.
	for i := 0; i < nch; i++ {
		n.Channels[(n.copyIdx+i)%len(n.Channels)].Access(p, 0x6000_0000+uint64(i)<<28, write, int(per))
	}
	n.copyIdx++
}

// TotalDRAMBytes sums traffic over all channels (Fig. 9's numerator).
func (n *Node) TotalDRAMBytes() int64 {
	var t int64
	for _, c := range n.Channels {
		t += c.Bytes.Total
	}
	return t
}

// Host is a server: a Node plus (optionally) an MCN host driver and a
// conventional NIC.
type Host struct {
	*Node
	Driver *core.HostDriver
	NIC    *ethdev.NIC
	Mcns   []*McnNode
	mcnIP  netstack.IP
	// McnSubnet selects the 192.168.<subnet>.x range of this host's MCN
	// point-to-point network; hosts in a rack use distinct subnets. Set
	// before AttachMCN (default 1).
	McnSubnet byte
	// MACBase is forwarded to the driver (see core.HostDriver.MACBase).
	MACBase uint32
}

// McnNode is one MCN DIMM's compute side.
type McnNode struct {
	*Node
	Dimm *core.Dimm
	Drv  *core.DimmDriver
	IP   netstack.IP
	Port *core.HostPort
}

// NewHost builds a host server.
func NewHost(k *sim.Kernel, cfg Config) *Host {
	return &Host{Node: New(k, cfg), McnSubnet: 1}
}

// HostMcnIP returns the host's address on the MCN point-to-point subnet.
func (h *Host) HostMcnIP() netstack.IP { return h.mcnIP }

// AttachMCN installs n MCN DIMMs, spread evenly over the host's memory
// channels, running at the given optimization level, and boots an MCN node
// on each. It may be called once.
func (h *Host) AttachMCN(n int, opts core.Options, mcnCfg Config) []*McnNode {
	if h.Driver != nil {
		panic("node: AttachMCN called twice")
	}
	h.mcnIP = netstack.IPv4(192, 168, h.McnSubnet, 1)
	costs := core.DefaultDriverCosts()
	h.Stack.ChecksumBypass = opts.ChecksumBypass
	h.Driver = core.NewHostDriver(h.K, h.CPU, h.Stack, opts, costs)
	h.Driver.MACBase = h.MACBase
	for i := 0; i < n; i++ {
		chIdx := i % len(h.Channels)
		cfg := mcnCfg
		cfg.Name = fmt.Sprintf("%s/mcn%d", h.Name, i)
		d := core.NewDimm(h.K, cfg.Name, h.Channels[chIdx], chIdx)
		ip := netstack.IPv4(192, 168, h.McnSubnet, byte(i+2))
		port := h.Driver.AddDimm(d, h.mcnIP, ip, i)
		mn := &McnNode{Node: New(h.K, cfg), Dimm: d, IP: ip, Port: port}
		mn.Stack.ChecksumBypass = opts.ChecksumBypass
		mn.Drv = core.NewDimmDriver(h.K, mn.CPU, mn.Stack, mn.Channels[0], d, port, opts, costs)
		// No static neighbor entries: the MCN node discovers the host
		// and its sibling nodes with real ARP exchanges relayed by the
		// forwarding engine (broadcast rule F2).
		mn.Stack.AddIface(mn.Drv, ip, netstack.MaskNone)
		h.Mcns = append(h.Mcns, mn)
	}
	h.Driver.Start()
	return h.Mcns
}

// AttachNIC gives the host a 10GbE NIC on the given link with the given
// LAN address, and wires it as the MCN forwarding engine's uplink (F4).
func (h *Host) AttachNIC(link *ethdev.Link, ip netstack.IP, macID uint32) *netstack.Iface {
	cfg := ethdev.DefaultConfig(h.Name+"/eth0", netstack.NewMAC(macID))
	h.NIC = ethdev.New(h.K, h.CPU, h.Channels[0], h.Stack, cfg, link)
	ifc := h.Stack.AddIface(h.NIC, ip, netstack.Mask24)
	if h.Driver != nil {
		h.Driver.SetUplink(h.NIC)
	}
	return ifc
}
