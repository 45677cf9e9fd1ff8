package obs

import (
	"strings"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
)

func TestCaptureOverMcn(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN0.Options())
	rec := NewRecorder(256)
	s.Mcns[0].Stack.Tap = rec
	k.Go("ping", func(p *sim.Proc) {
		if _, ok := s.Host.Stack.Ping(p, s.Mcns[0].IP, 56, sim.Second); !ok {
			panic("ping lost")
		}
	})
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	dump := rec.Dump()
	if !strings.Contains(dump, "echo request") || !strings.Contains(dump, "echo reply") {
		t.Fatalf("capture missing ICMP lines:\n%s", dump)
	}
	if !strings.Contains(dump, "mcn0") {
		t.Fatalf("capture missing device names:\n%s", dump)
	}
	k.Shutdown()
}

func TestCaptureTCPFlags(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN0.Options())
	rec := NewRecorder(512)
	s.Host.Stack.Tap = rec
	k.Go("server", func(p *sim.Proc) {
		l, _ := s.Mcns[0].Stack.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 3000)
	})
	k.Go("client", func(p *sim.Proc) {
		c, err := s.Host.Stack.Connect(p, s.Mcns[0].IP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, 3000)
		c.Close(p)
	})
	k.RunUntil(sim.Time(50 * sim.Millisecond))
	dump := rec.Dump()
	for _, want := range []string{"Flags [S]", "Flags [P.]", "Flags [F.]"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("capture missing %q:\n%s", want, dump)
		}
	}
	k.Shutdown()
}

func TestRecorderBounded(t *testing.T) {
	rec := NewRecorder(2)
	frame := make([]byte, netstack.EthHeaderBytes)
	for i := 0; i < 5; i++ {
		rec.Frame(0, netstack.TapTx, "eth0", frame)
	}
	if len(rec.Records) != 2 || rec.Dropped != 3 {
		t.Fatalf("records=%d dropped=%d", len(rec.Records), rec.Dropped)
	}
	if !strings.Contains(rec.Dump(), "3 frames dropped") {
		t.Fatal("dump should mention dropped frames")
	}
}

func TestSummarizeFragment(t *testing.T) {
	frame := make([]byte, netstack.EthHeaderBytes+netstack.IPv4HeaderBytes+100)
	netstack.PutEth(frame, netstack.EthHeader{Type: netstack.EtherTypeIPv4})
	netstack.PutIPv4(frame[netstack.EthHeaderBytes:], netstack.IPv4Header{
		TotalLen: netstack.IPv4HeaderBytes + 100, ID: 7, TTL: 64,
		Proto: netstack.ProtoUDP, Src: netstack.IPv4(1, 1, 1, 1), Dst: netstack.IPv4(2, 2, 2, 2),
		MF: true, FragOff: 1480,
	})
	s := Summarize(frame)
	if !strings.Contains(s, "frag id 7 offset 1480+") {
		t.Fatalf("fragment summary %q", s)
	}
}

func TestRecorderRingKeepsNewest(t *testing.T) {
	rec := NewRecorder(3)
	rec.CaptureBytes = true
	for i := 0; i < 7; i++ {
		frame := make([]byte, netstack.EthHeaderBytes+1)
		frame[netstack.EthHeaderBytes] = byte(i)
		rec.Frame(sim.Time(i)*sim.Time(sim.Microsecond), netstack.TapTx, "eth0", frame)
	}
	if len(rec.Records) != 3 || rec.Dropped != 4 {
		t.Fatalf("records=%d dropped=%d", len(rec.Records), rec.Dropped)
	}
	// The ring holds the newest frames in chronological order.
	for i, want := range []byte{4, 5, 6} {
		r := rec.Records[i]
		if r.Raw[netstack.EthHeaderBytes] != want {
			t.Fatalf("record %d holds frame %d, want %d", i, r.Raw[netstack.EthHeaderBytes], want)
		}
		if i > 0 && rec.Records[i-1].At >= r.At {
			t.Fatal("ring not in chronological order")
		}
	}
}

func TestRecorderFilterWithEviction(t *testing.T) {
	rec := NewRecorder(3)
	rec.CaptureBytes = true
	// Select one "flow": frames on dev eth1 only — the single-flow
	// capture a traced request's 4-tuple filter performs.
	rec.Filter = func(r Record) bool { return r.Dev == "eth1" && len(r.Raw) > 0 }
	for i := 0; i < 10; i++ {
		frame := make([]byte, netstack.EthHeaderBytes+1)
		frame[netstack.EthHeaderBytes] = byte(i)
		dev := "eth0"
		if i%2 == 1 {
			dev = "eth1"
		}
		rec.Frame(sim.Time(i)*sim.Time(sim.Microsecond), netstack.TapTx, dev, frame)
	}
	// Of the 5 accepted frames (1,3,5,7,9) the ring keeps the newest 3;
	// rejected frames neither occupy slots nor count as Dropped.
	if len(rec.Records) != 3 || rec.Dropped != 2 {
		t.Fatalf("records=%d dropped=%d", len(rec.Records), rec.Dropped)
	}
	for i, want := range []byte{5, 7, 9} {
		if got := rec.Records[i].Raw[netstack.EthHeaderBytes]; got != want {
			t.Fatalf("record %d holds frame %d, want %d", i, got, want)
		}
		if rec.Records[i].Dev != "eth1" {
			t.Fatalf("filter leaked dev %q", rec.Records[i].Dev)
		}
	}
}
