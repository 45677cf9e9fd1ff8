// Package cluster builds the topologies the paper evaluates: an
// MCN-enabled server (host + N MCN DIMMs), a conventional 10GbE scale-out
// cluster behind a top-of-rack switch, and a scale-up server (one node with
// more cores). It also defines the Endpoint abstraction the MPI layer runs
// ranks on.
package cluster

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/ethdev"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Endpoint is a place an MPI rank (or any workload process) can run: a
// node, its address, and how many ranks it is expected to host.
type Endpoint struct {
	Node *node.Node
	IP   netstack.IP
	// Transport selects how connections from/to this endpoint are
	// opened. nil means the node's TCP stack; mcn topologies install
	// the MCN-native mcnt transport here so memory-channel hops skip
	// TCP while off-fabric destinations still fall back to it.
	Transport netstack.Transport
}

// transport resolves the endpoint's effective transport.
func (e Endpoint) transport() netstack.Transport {
	if e.Transport != nil {
		return e.Transport
	}
	return e.Node.Stack
}

// DialConn opens a connection to dst:port over the endpoint's
// transport.
func (e Endpoint) DialConn(p *sim.Proc, dst netstack.IP, port uint16) (netstack.Conn, error) {
	return e.transport().DialConn(p, dst, port)
}

// ListenConn starts accepting connections on port over the endpoint's
// transport.
func (e Endpoint) ListenConn(port uint16) (netstack.Acceptor, error) {
	return e.transport().ListenConn(port)
}

// McnServer is one host with N MCN DIMMs.
type McnServer struct {
	K    *sim.Kernel
	Host *node.Host
	Mcns []*node.McnNode
}

// NewMcnServer builds an MCN-enabled server with nDimms DIMMs at the given
// optimization level.
func NewMcnServer(k *sim.Kernel, nDimms int, opts core.Options) *McnServer {
	h := node.NewHost(k, node.HostConfig("host"))
	mcns := h.AttachMCN(nDimms, opts, node.McnConfig(""))
	return &McnServer{K: k, Host: h, Mcns: mcns}
}

// Endpoints returns the host followed by every MCN node.
func (s *McnServer) Endpoints() []Endpoint {
	eps := []Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}}
	for _, m := range s.Mcns {
		eps = append(eps, Endpoint{Node: m.Node, IP: m.IP})
	}
	return eps
}

// InjectFaults attaches the plan's memory-channel and control-edge fault
// sites to the server's host driver.
func (s *McnServer) InjectFaults(in *faults.Injector) {
	s.Host.Driver.InjectFaults(in)
}

// McnEndpoints returns only the MCN nodes.
func (s *McnServer) McnEndpoints() []Endpoint {
	var eps []Endpoint
	for _, m := range s.Mcns {
		eps = append(eps, Endpoint{Node: m.Node, IP: m.IP})
	}
	return eps
}

// TotalDRAMBytes sums DRAM traffic across the host's global channels and
// every MCN DIMM's local channel (Fig. 9's aggregate bandwidth numerator).
func (s *McnServer) TotalDRAMBytes() int64 {
	t := s.Host.TotalDRAMBytes()
	for _, m := range s.Mcns {
		t += m.TotalDRAMBytes()
	}
	return t
}

// EthCluster is n conventional nodes behind a 10GbE top-of-rack switch.
type EthCluster struct {
	K      *sim.Kernel
	Nodes  []*node.Host
	Switch *ethdev.Switch
	Links  []*ethdev.Link // node<->switch cables, by node order
}

// NewEthCluster builds a scale-out cluster of n Table II nodes. Their
// stacks share one frame pool: a wire frame is cut from the sender's pool
// and recycled by the receiving NIC.
func NewEthCluster(k *sim.Kernel, n int, cfg node.Config) *EthCluster {
	c := &EthCluster{K: k, Switch: ethdev.NewSwitch(k, 10e9, 500*sim.Nanosecond)}
	for i := 0; i < n; i++ {
		nc := cfg
		nc.Name = fmt.Sprintf("node%d", i)
		h := node.NewHost(k, nc)
		if i > 0 {
			h.Stack.SharePool(c.Nodes[0].Stack)
		}
		link := ethdev.NewLink(k, sim.Microsecond)
		ip := netstack.IPv4(10, 0, 0, byte(i+1))
		h.AttachNIC(link, ip, uint32(0x30000+i))
		c.Switch.AttachPort(link, h.NIC.MAC())
		c.Nodes = append(c.Nodes, h)
		c.Links = append(c.Links, link)
	}
	// Address resolution between nodes happens with real ARP broadcasts
	// flooded by the switch; no static neighbor tables.
	return c
}

// InjectFaults attaches a link-fault site to every node<->switch cable.
func (c *EthCluster) InjectFaults(in *faults.Injector) {
	for i, l := range c.Links {
		l.Inject = in.LinkSite(fmt.Sprintf("link/node%d", i))
	}
}

// Endpoints returns all cluster nodes.
func (c *EthCluster) Endpoints() []Endpoint {
	var eps []Endpoint
	for i, n := range c.Nodes {
		eps = append(eps, Endpoint{Node: n.Node, IP: netstack.IPv4(10, 0, 0, byte(i+1))})
	}
	return eps
}

// NewScaleUp builds a single conventional server with the given core count
// (Fig. 11's scale-up baseline). Ranks communicate over loopback.
func NewScaleUp(k *sim.Kernel, cores int) *node.Host {
	cfg := node.HostConfig("scaleup")
	cfg.Cores = cores
	return node.NewHost(k, cfg)
}

// McnRack is the paper's Sec. III-B / Sec. VII multi-host picture: several
// MCN-enabled servers behind one top-of-rack switch. MCN nodes on
// different hosts reach each other through their hosts' conventional NICs
// (forwarding rule F4 on egress, the uplink bridge on ingress).
type McnRack struct {
	Servers []*McnServer
	Switch  *ethdev.Switch
	Links   []*ethdev.Link // host<->switch cables, by server order
}

// NewMcnRack builds nServers MCN servers with dimmsPer DIMMs each, all on
// one switch. Each host gets a distinct MCN subnet (192.168.<i+1>.x) and
// MAC range. Every stack in the rack shares one frame pool.
func NewMcnRack(k *sim.Kernel, nServers, dimmsPer int, opts core.Options) *McnRack {
	r := &McnRack{Switch: ethdev.NewSwitch(k, 10e9, 500*sim.Nanosecond)}
	for i := 0; i < nServers; i++ {
		cfg := node.HostConfig(fmt.Sprintf("host%d", i))
		h := node.NewHost(k, cfg)
		if i > 0 {
			// Before AttachMCN, whose DIMM stacks take the host's pool.
			h.Stack.SharePool(r.Servers[0].Host.Stack)
		}
		h.McnSubnet = byte(i + 1)
		h.MACBase = uint32(i+1) << 8
		mcns := h.AttachMCN(dimmsPer, opts, node.McnConfig(""))
		link := ethdev.NewLink(k, sim.Microsecond)
		h.AttachNIC(link, netstack.IPv4(10, 0, 0, byte(i+1)), uint32(0x40000+i))
		r.Switch.AttachPort(link, h.NIC.MAC())
		r.Servers = append(r.Servers, &McnServer{K: k, Host: h, Mcns: mcns})
		r.Links = append(r.Links, link)
	}
	return r
}

// InjectFaults attaches fault sites across the rack: every host uplink
// cable plus every server's memory-channel and control-edge sites.
func (r *McnRack) InjectFaults(in *faults.Injector) {
	for i, l := range r.Links {
		l.Inject = in.LinkSite(fmt.Sprintf("link/host%d", i))
	}
	for _, s := range r.Servers {
		s.InjectFaults(in)
	}
}

// AllMcnEndpoints returns every MCN node across the rack, grouped by
// server order.
func (r *McnRack) AllMcnEndpoints() []Endpoint {
	var eps []Endpoint
	for _, s := range r.Servers {
		eps = append(eps, s.McnEndpoints()...)
	}
	return eps
}
