package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

// Record is one captured frame.
type Record struct {
	At      sim.Time
	Dir     string // the tap site's name: "tx", "rx", "lo", "push" or "pop"
	Dev     string
	Len     int
	Summary string
	// Raw holds the frame bytes when the recorder captures payloads.
	Raw []byte
}

// Recorder is a tcpdump for the simulated network: attach it as the
// netstack.Tap of any stack and it captures and pretty-prints the frames
// crossing that stack's devices — Ethernet, IPv4 (including fragments),
// ICMP, UDP and TCP with flags/seq/ack the way tcpdump renders them. The
// paper's proof-of-concept demo (Fig. 12) runs tcpdump on the NIOS II
// terminal; examples/mpihello reproduces that with a Recorder.
//
// It captures frames into a ring of at most Max entries: once full, each
// new frame evicts the oldest one (like tcpdump's rotating capture
// buffers), so memory stays bounded even on captures that run for the
// whole simulation. Records is always in chronological order; Dropped
// counts evicted frames.
type Recorder struct {
	Max     int
	Records []Record
	Dropped int
	// CaptureBytes keeps full frame contents so the capture can be
	// exported with WritePcap; the ring cap then also bounds the retained
	// payload bytes to Max frames.
	CaptureBytes bool
	// Filter, when set, selects which frames enter the ring — tcpdump's
	// BPF expression as a Go predicate (e.g. match one traced request's
	// 4-tuple). Rejected frames are not recorded and do not count as
	// Dropped, and the ring still keeps the newest Max *accepted* frames.
	// The Record passed in carries Raw only if CaptureBytes is set.
	Filter func(Record) bool
}

// NewRecorder returns a recorder holding up to max frames (0 = 4096).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = 4096
	}
	return &Recorder{Max: max}
}

// Frame implements netstack.Tap.
func (r *Recorder) Frame(at sim.Time, site netstack.TapSite, dev string, data []byte) {
	rec := Record{
		At: at, Dir: site.String(), Dev: dev, Len: len(data), Summary: Summarize(data),
	}
	if r.CaptureBytes {
		rec.Raw = append([]byte(nil), data...)
	}
	if r.Filter != nil && !r.Filter(rec) {
		return
	}
	if len(r.Records) >= r.Max {
		// Ring semantics: evict the oldest frame so the capture keeps the
		// newest Max frames with bounded memory.
		copy(r.Records, r.Records[1:])
		r.Records[len(r.Records)-1] = rec
		r.Dropped++
		return
	}
	r.Records = append(r.Records, rec)
}

// WritePcap exports the capture as a classic libpcap file (usec
// resolution, LINKTYPE_ETHERNET) readable by tcpdump and Wireshark. The
// recorder must have been created with CaptureBytes set.
func (r *Recorder) WritePcap(w io.Writer) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b2c3d4) // magic
	binary.LittleEndian.PutUint16(hdr[4:6], 2)          // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4)          // minor
	binary.LittleEndian.PutUint32(hdr[16:20], 1<<16)    // snaplen
	binary.LittleEndian.PutUint32(hdr[20:24], 1)        // Ethernet
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, rec := range r.Records {
		if rec.Raw == nil {
			return fmt.Errorf("obs: record has no raw bytes; set CaptureBytes before capturing")
		}
		ph := make([]byte, 16)
		us := int64(rec.At) / int64(sim.Microsecond)
		binary.LittleEndian.PutUint32(ph[0:4], uint32(us/1e6))
		binary.LittleEndian.PutUint32(ph[4:8], uint32(us%1e6))
		binary.LittleEndian.PutUint32(ph[8:12], uint32(len(rec.Raw)))
		binary.LittleEndian.PutUint32(ph[12:16], uint32(len(rec.Raw)))
		if _, err := w.Write(ph); err != nil {
			return err
		}
		if _, err := w.Write(rec.Raw); err != nil {
			return err
		}
	}
	return nil
}

// Dump renders the capture like a tcpdump session.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "%12v %s %-6s %s\n", rec.At, rec.Dir, rec.Dev, rec.Summary)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "... %d frames dropped by the capture ring (oldest evicted)\n", r.Dropped)
	}
	return b.String()
}

// Summarize renders one frame as a tcpdump-style line.
func Summarize(frame []byte) string {
	eth, ok := netstack.ParseEth(frame)
	if !ok {
		return fmt.Sprintf("malformed frame, %d bytes", len(frame))
	}
	if eth.Type == netstack.EtherTypeARP {
		if a, ok2 := netstack.ParseARP(frame[netstack.EthHeaderBytes:]); ok2 {
			if a.Op == netstack.ARPRequest {
				return fmt.Sprintf("ARP, Request who-has %v tell %v", a.TargetIP, a.SenderIP)
			}
			return fmt.Sprintf("ARP, Reply %v is-at %v", a.SenderIP, a.SenderMAC)
		}
		return "malformed ARP"
	}
	if eth.Type != netstack.EtherTypeIPv4 {
		return fmt.Sprintf("non-IP frame (type %#04x), %d bytes", eth.Type, len(frame))
	}
	ip, ok := netstack.ParseIPv4(frame[netstack.EthHeaderBytes:])
	if !ok {
		return "malformed IPv4"
	}
	body := frame[netstack.EthHeaderBytes:]
	if int(ip.TotalLen) <= len(body) {
		body = body[:ip.TotalLen]
	}
	payload := body[netstack.IPv4HeaderBytes:]
	if ip.FragOff > 0 || ip.MF {
		return fmt.Sprintf("IP %v > %v: frag id %d offset %d%s, length %d",
			ip.Src, ip.Dst, ip.ID, ip.FragOff, mfTag(ip.MF), len(payload))
	}
	switch ip.Proto {
	case netstack.ProtoICMP:
		m, ok := netstack.ParseICMPEcho(payload)
		if !ok {
			return fmt.Sprintf("IP %v > %v: ICMP, length %d", ip.Src, ip.Dst, len(payload))
		}
		kind := "echo request"
		if m.Type == netstack.ICMPEchoReply {
			kind = "echo reply"
		}
		return fmt.Sprintf("IP %v > %v: ICMP %s, id %d, seq %d, length %d",
			ip.Src, ip.Dst, kind, m.ID, m.Seq, len(payload))
	case netstack.ProtoUDP:
		u, ok := netstack.ParseUDP(payload)
		if !ok {
			return fmt.Sprintf("IP %v > %v: UDP, length %d", ip.Src, ip.Dst, len(payload))
		}
		return fmt.Sprintf("IP %v.%d > %v.%d: UDP, length %d",
			ip.Src, u.SrcPort, ip.Dst, u.DstPort, int(u.Len)-netstack.UDPHeaderBytes)
	case netstack.ProtoTCP:
		th, ok := netstack.ParseTCP(payload)
		if !ok {
			return fmt.Sprintf("IP %v > %v: TCP, length %d", ip.Src, ip.Dst, len(payload))
		}
		dataLen := len(payload) - netstack.TCPHeaderBytes
		return fmt.Sprintf("IP %v.%d > %v.%d: Flags [%s], seq %d, ack %d, win %d, length %d",
			ip.Src, th.SrcPort, ip.Dst, th.DstPort, tcpFlags(th.Flags), th.Seq, th.Ack, th.Window, dataLen)
	default:
		return fmt.Sprintf("IP %v > %v: proto %d, length %d", ip.Src, ip.Dst, ip.Proto, len(payload))
	}
}

func mfTag(mf bool) string {
	if mf {
		return "+"
	}
	return ""
}

// tcpFlags renders flags in tcpdump's compact notation.
func tcpFlags(f uint8) string {
	var b strings.Builder
	if f&netstack.TCPSyn != 0 {
		b.WriteByte('S')
	}
	if f&netstack.TCPFin != 0 {
		b.WriteByte('F')
	}
	if f&netstack.TCPRst != 0 {
		b.WriteByte('R')
	}
	if f&netstack.TCPPsh != 0 {
		b.WriteByte('P')
	}
	if f&netstack.TCPAck != 0 {
		b.WriteByte('.')
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}
