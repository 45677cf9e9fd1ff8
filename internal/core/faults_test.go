package core

import (
	"bytes"
	"testing"

	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/sim"
)

// With every ALERT_N edge suppressed, the host never hears about pending TX
// work — only the recovery watchdog can re-kick the ring. The transfer must
// still complete, just on watchdog cadence.
func TestWatchdogRecoversSuppressedAlerts(t *testing.T) {
	fx := newFixture(MCN1.Options(), 1, 1)
	in := faults.New(faults.Plan{Seed: 21, AlertSuppressProb: 1})
	fx.hd.InjectFaults(in)

	const total = 50 * 1024
	var got int
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.hostStk.Listen(5001)
		c, _ := l.Accept(p)
		got = c.RecvAll(p)
	})
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.mcns[0].stack.Connect(p, fx.hostIP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, total)
		c.Close(p)
	})
	fx.k.RunUntil(sim.Time(2 * sim.Second))
	if got != total {
		t.Fatalf("host received %d of %d bytes with all alerts suppressed", got, total)
	}
	if fx.hd.Recov.WatchdogKicks == 0 {
		t.Fatal("transfer completed without watchdog kicks; alerts were not suppressed")
	}
	if in.Totals().Suppressed == 0 {
		t.Fatal("injector suppressed no edges")
	}
	fx.k.Shutdown()
}

// Same story on the MCN side: every rx-poll IRQ edge is lost, so the MCN
// node's RX ring is drained only by its own watchdog.
func TestWatchdogRecoversSuppressedRxIRQ(t *testing.T) {
	fx := newFixture(MCN1.Options(), 1, 1)
	in := faults.New(faults.Plan{Seed: 22, RxIRQSuppressProb: 1})
	fx.hd.InjectFaults(in)

	const total = 50 * 1024
	var got int
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.mcns[0].stack.Listen(5001)
		c, _ := l.Accept(p)
		got = c.RecvAll(p)
	})
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.hostStk.Connect(p, fx.mcns[0].ip, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, total)
		c.Close(p)
	})
	fx.k.RunUntil(sim.Time(2 * sim.Second))
	if got != total {
		t.Fatalf("mcn received %d of %d bytes with all rx IRQs suppressed", got, total)
	}
	if fx.mcns[0].drv.Recov.WatchdogKicks == 0 {
		t.Fatal("transfer completed without MCN-side watchdog kicks")
	}
	fx.k.Shutdown()
}

// A DIMM that goes offline mid-transfer must be detected (carrier down),
// survive the outage through TCP retransmission, and resume when the flap
// ends (carrier up) — with the payload still byte-identical.
func TestDimmFlapRecoversByteIdentical(t *testing.T) {
	fx := newFixture(MCN1.Options(), 1, 1)
	in := faults.New(faults.Plan{Seed: 23, DimmFlaps: []faults.DimmFlap{{
		Name:  "dimm0",
		Start: sim.Time(500 * sim.Microsecond),
		End:   sim.Time(2500 * sim.Microsecond),
	}}})
	fx.hd.InjectFaults(in)

	const total = 2 << 20 // long enough to straddle the flap window
	msg := make([]byte, total)
	for i := range msg {
		msg[i] = byte(i*13 + i>>9)
	}
	var got []byte
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.mcns[0].stack.Listen(5001)
		c, _ := l.Accept(p)
		buf := make([]byte, 8192)
		for {
			n, ok := c.Recv(p, buf)
			got = append(got, buf[:n]...)
			if !ok {
				break
			}
		}
	})
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.hostStk.Connect(p, fx.mcns[0].ip, 5001)
		if err != nil {
			panic(err)
		}
		c.Send(p, msg)
		c.Close(p)
	})
	fx.k.RunUntil(sim.Time(5 * sim.Second))
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted across the flap: got %d want %d bytes", len(got), len(msg))
	}
	if fx.hd.Recov.CarrierDowns != 1 || fx.hd.Recov.CarrierUps != 1 {
		t.Fatalf("carrier transitions down=%d up=%d, want 1/1",
			fx.hd.Recov.CarrierDowns, fx.hd.Recov.CarrierUps)
	}
	if fx.hd.Recov.CarrierDrops == 0 {
		t.Fatal("no packets were dropped during the offline window")
	}
	fx.k.Shutdown()
}

// Without fault injection no watchdog timer may be armed: fault-free
// simulations must keep exactly the seed's event stream.
func TestWatchdogsLazyWithoutInjection(t *testing.T) {
	fx := newFixture(MCN1.Options(), 1, 1)
	if fx.hd.watchdog != nil || fx.mcns[0].drv.watchdog != nil {
		t.Fatal("watchdog armed without fault injection")
	}
	in := faults.New(faults.Plan{Seed: 1})
	fx.hd.InjectFaults(in)
	if fx.hd.watchdog == nil || fx.mcns[0].drv.watchdog == nil {
		t.Fatal("InjectFaults did not arm the watchdogs")
	}
	fx.k.Shutdown()
}
