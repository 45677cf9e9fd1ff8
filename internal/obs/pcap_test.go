package obs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

func TestWritePcap(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN0.Options())
	rec := NewRecorder(128)
	rec.CaptureBytes = true
	s.Mcns[0].Stack.Tap = rec
	k.Go("ping", func(p *sim.Proc) {
		s.Host.Stack.Ping(p, s.Mcns[0].IP, 56, sim.Second)
	})
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	if len(rec.Records) == 0 {
		t.Fatal("nothing captured")
	}

	var buf bytes.Buffer
	if err := rec.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if binary.LittleEndian.Uint32(out[0:4]) != 0xa1b2c3d4 {
		t.Fatalf("bad magic %x", out[0:4])
	}
	if binary.LittleEndian.Uint32(out[20:24]) != 1 {
		t.Fatal("linktype must be Ethernet")
	}
	// Walk the packet records and verify framing adds up.
	off := 24
	n := 0
	for off < len(out) {
		if off+16 > len(out) {
			t.Fatal("truncated packet header")
		}
		caplen := int(binary.LittleEndian.Uint32(out[off+8 : off+12]))
		wire := int(binary.LittleEndian.Uint32(out[off+12 : off+16]))
		if caplen != wire || caplen <= 0 {
			t.Fatalf("bad lengths caplen=%d wire=%d", caplen, wire)
		}
		off += 16 + caplen
		n++
	}
	if n != len(rec.Records) {
		t.Fatalf("pcap has %d packets, recorder has %d", n, len(rec.Records))
	}
	k.Shutdown()
}

func TestWritePcapWithoutBytesFails(t *testing.T) {
	rec := NewRecorder(4)
	rec.Frame(0, netstack.TapTx, "eth0", make([]byte, 64))
	var buf bytes.Buffer
	if err := rec.WritePcap(&buf); err == nil {
		t.Fatal("WritePcap must fail when CaptureBytes was off")
	}
}
