package netstack

import (
	"encoding/binary"

	"github.com/mcn-arch/mcn/internal/sim"
)

// ARP (RFC 826) over the simulated network. Interfaces resolve next-hop
// MACs in three steps: the static neighbor table (a pre-provisioned
// entry), the dynamic ARP cache, and finally a broadcast who-has request.
//
// ARP is what makes the MCN network organization self-configuring the way
// the paper describes: an MCN node's 0.0.0.0 mask puts every destination
// on-link, its broadcast request is relayed by the host's forwarding
// engine (rule F2) to the other DIMMs and the conventional NIC, and the
// owner — another DIMM, the host, or a node across the rack switch —
// replies with its interface MAC, which then steers rules F1/F3/F4.

// EtherTypeARP is the ARP EtherType.
const EtherTypeARP = 0x0806

// ARP opcode values.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// arpPacketBytes is the size of an Ethernet/IPv4 ARP body.
const arpPacketBytes = 28

// ARPPacket is a parsed ARP body.
type ARPPacket struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IP
	TargetMAC MAC
	TargetIP  IP
}

// arpPacket is the internal alias.
type arpPacket = ARPPacket

// ParseARP parses an ARP body (what follows the Ethernet header).
func ParseARP(b []byte) (ARPPacket, bool) { return parseARP(b) }

func putARP(b []byte, p arpPacket) {
	binary.BigEndian.PutUint16(b[0:2], 1)      // HTYPE Ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // PTYPE IPv4
	b[4], b[5] = 6, 4                          // HLEN, PLEN
	binary.BigEndian.PutUint16(b[6:8], p.Op)
	copy(b[8:14], p.SenderMAC[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetMAC[:])
	copy(b[24:28], p.TargetIP[:])
}

func parseARP(b []byte) (arpPacket, bool) {
	if len(b) < arpPacketBytes {
		return arpPacket{}, false
	}
	var p arpPacket
	p.Op = binary.BigEndian.Uint16(b[6:8])
	copy(p.SenderMAC[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetMAC[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, true
}

// arpEntry is one dynamic cache entry.
type arpEntry struct {
	mac MAC
	at  sim.Time
}

// arpTimeout bounds cache entry lifetime.
const arpTimeout = 60 * sim.Second

// arpRetry is the request retransmission interval; arpAttempts bounds how
// many requests are sent before resolution fails.
const arpRetry = 2 * sim.Millisecond
const arpAttempts = 3

// ResolveMAC returns the next-hop MAC for dst on ifc, consulting the
// static table, then the ARP cache, then performing a full ARP exchange.
// It blocks the calling process during resolution.
func (ifc *Iface) ResolveMAC(p *sim.Proc, dst IP) (MAC, error) {
	if m, ok := ifc.neighbour(dst); ok {
		return m, nil
	}
	s := ifc.Stack
	if s.arpCache == nil {
		s.arpCache = make(map[IP]arpEntry)
		s.arpWait = make(map[IP]*sim.Signal)
	}
	// Join (or start) a resolution.
	sig, inFlight := s.arpWait[dst]
	if !inFlight {
		sig = s.K.NewSignal()
		s.arpWait[dst] = sig
	}
	for attempt := 0; attempt < arpAttempts; attempt++ {
		if !inFlight {
			s.sendARP(p, ifc, ARPRequest, BroadcastMAC, dst)
			s.ARPRequests++
		}
		if sig.WaitTimeout(p, arpRetry) {
			if e, ok := s.arpCache[dst]; ok {
				return e.mac, nil
			}
		}
		inFlight = false // retransmit on the next lap
	}
	delete(s.arpWait, dst)
	return MAC{}, &NoNeighborError{Host: s.Host, IP: dst}
}

// neighbour returns the next-hop MAC for dst when ResolveMAC has it
// without an exchange: from the static table, the gateway or the cache.
func (ifc *Iface) neighbour(dst IP) (MAC, bool) {
	if m, ok := ifc.Neighbors[dst]; ok {
		return m, true
	}
	if ifc.HasGateway {
		return ifc.Gateway, true
	}
	s := ifc.Stack
	if e, ok := s.arpCache[dst]; ok && s.K.Now().Sub(e.at) < arpTimeout {
		return e.mac, true
	}
	return MAC{}, false
}

// NoNeighborError reports a failed ARP resolution.
type NoNeighborError struct {
	Host string
	IP   IP
}

func (e *NoNeighborError) Error() string {
	return "netstack(" + e.Host + "): ARP resolution failed for " + e.IP.String()
}

// sendARP emits one ARP packet on ifc.
func (s *Stack) sendARP(p *sim.Proc, ifc *Iface, op uint16, dstMAC MAC, targetIP IP) {
	s.CPU.Exec(p, s.Costs.ICMPCycles/2)
	frame := make([]byte, EthHeaderBytes+arpPacketBytes)
	PutEth(frame, EthHeader{Dst: dstMAC, Src: ifc.Dev.MAC(), Type: EtherTypeARP})
	pkt := arpPacket{Op: op, SenderMAC: ifc.Dev.MAC(), SenderIP: ifc.IP, TargetIP: targetIP}
	if op == ARPReply {
		pkt.TargetMAC = dstMAC
	}
	putARP(frame[EthHeaderBytes:], pkt)
	if s.Tap != nil {
		s.Tap.Frame(s.K.Now(), TapTx, ifc.Dev.Name(), frame)
	}
	ifc.Dev.Transmit(p, Frame{Data: frame})
}

// rxARP handles an inbound ARP packet on dev.
func (s *Stack) rxARP(p *sim.Proc, dev NetDev, body []byte) {
	pkt, ok := parseARP(body)
	if !ok {
		s.Drops++
		return
	}
	s.CPU.Exec(p, s.Costs.ICMPCycles/2)
	if s.arpCache == nil {
		s.arpCache = make(map[IP]arpEntry)
		s.arpWait = make(map[IP]*sim.Signal)
	}
	// Learn the sender mapping either way.
	s.arpCache[pkt.SenderIP] = arpEntry{mac: pkt.SenderMAC, at: s.K.Now()}
	if sig, ok := s.arpWait[pkt.SenderIP]; ok {
		delete(s.arpWait, pkt.SenderIP)
		sig.Notify()
	}
	if pkt.Op != ARPRequest {
		return
	}
	// Answer requests for any address this stack owns on that device.
	var owner *Iface
	for _, ifc := range s.ifaces {
		if ifc.Dev == dev && ifc.IP == pkt.TargetIP {
			owner = ifc
			break
		}
	}
	if owner == nil {
		return
	}
	reply := pkt.SenderMAC
	s.K.Go(s.Host+"/arp-reply", func(rp *sim.Proc) {
		s.sendARP(rp, owner, ARPReply, reply, pkt.SenderIP)
		s.ARPReplies++
	})
}
