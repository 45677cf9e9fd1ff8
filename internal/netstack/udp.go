package netstack

import (
	"fmt"

	"github.com/mcn-arch/mcn/internal/sim"
)

// UDPSocket is a connectionless datagram socket.
type UDPSocket struct {
	s    *Stack
	port uint16
	rx   *sim.Queue[Datagram]
}

// Datagram is one received UDP message.
type Datagram struct {
	Src  IP
	Data []byte
}

// UDPBind opens a UDP socket on port (0 picks an ephemeral port).
func (s *Stack) UDPBind(port uint16) (*UDPSocket, error) {
	if port == 0 {
		port = s.allocPort()
	}
	if _, ok := s.udpSocks[port]; ok {
		return nil, fmt.Errorf("netstack(%s): UDP port %d in use", s.Host, port)
	}
	u := &UDPSocket{s: s, port: port, rx: sim.NewQueue[Datagram](s.K, 0)}
	s.udpSocks[port] = u
	return u, nil
}

// SendTo transmits one datagram.
func (u *UDPSocket) SendTo(p *sim.Proc, dst IP, dstPort uint16, data []byte) error {
	s := u.s
	s.CPU.Exec(p, s.Costs.SocketCycles+s.Costs.UDPCycles)
	s.chargeCopy(p, len(data))
	s.chargeChecksum(p, len(data)+UDPHeaderBytes)
	msg := make([]byte, UDPHeaderBytes+len(data))
	PutUDP(msg, UDPHeader{SrcPort: u.port, DstPort: dstPort, Len: uint16(len(msg))})
	copy(msg[UDPHeaderBytes:], data)
	return s.sendIP(p, ProtoUDP, IP{}, dst, msg)
}

// Recv blocks for the next datagram; ok=false after Close.
func (u *UDPSocket) Recv(p *sim.Proc) (Datagram, bool) {
	u.s.CPU.Exec(p, u.s.Costs.SocketCycles)
	return u.rx.Get(p)
}

// Close releases the port.
func (u *UDPSocket) Close() {
	delete(u.s.udpSocks, u.port)
	u.rx.Close()
}

func (s *Stack) rxUDP(p *sim.Proc, hdr IPv4Header, body []byte) {
	uh, ok := ParseUDP(body)
	if !ok || int(uh.Len) > len(body) {
		s.Drops++
		return
	}
	sock, ok := s.udpSocks[uh.DstPort]
	if !ok {
		s.Drops++
		return
	}
	s.CPU.Exec(p, s.Costs.UDPCycles)
	data := make([]byte, int(uh.Len)-UDPHeaderBytes)
	copy(data, body[UDPHeaderBytes:uh.Len])
	s.chargeCopy(p, len(data))
	sock.rx.TryPut(Datagram{Src: hdr.Src, Data: data})
}
