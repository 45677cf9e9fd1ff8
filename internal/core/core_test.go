package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cpu"
	"github.com/mcn-arch/mcn/internal/dram"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/sim"
	"github.com/mcn-arch/mcn/internal/sram"
)

func TestOptLevelsTableI(t *testing.T) {
	cases := []struct {
		l    OptLevel
		want Options
	}{
		{MCN0, Options{MTU: 1500, PollInterval: DefaultPollInterval}},
		{MCN1, Options{DimmInterrupt: true, MTU: 1500, PollInterval: DefaultPollInterval}},
		{MCN2, Options{DimmInterrupt: true, ChecksumBypass: true, MTU: 1500, PollInterval: DefaultPollInterval}},
		{MCN3, Options{DimmInterrupt: true, ChecksumBypass: true, MTU: 9000, PollInterval: DefaultPollInterval}},
		{MCN4, Options{DimmInterrupt: true, ChecksumBypass: true, MTU: 9000, TSO: true, PollInterval: DefaultPollInterval}},
		{MCN5, Options{DimmInterrupt: true, ChecksumBypass: true, MTU: 9000, TSO: true, DMA: true, PollInterval: DefaultPollInterval}},
	}
	for _, c := range cases {
		if got := c.l.Options(); got != c.want {
			t.Errorf("%v.Options() = %+v, want %+v", c.l, got, c.want)
		}
	}
	if MCN3.String() != "mcn3" {
		t.Errorf("String() = %q", MCN3.String())
	}
}

// fixture builds a host with nDimms MCN DIMMs spread over nChannels host
// memory channels.
type fixture struct {
	k        *sim.Kernel
	hostCPU  *cpu.CPU
	hostStk  *netstack.Stack
	channels []*dram.Channel
	hd       *HostDriver
	mcns     []*mcnNode
	hostIP   netstack.IP
}

type mcnNode struct {
	cpu   *cpu.CPU
	stack *netstack.Stack
	local *dram.Channel
	dimm  *Dimm
	drv   *DimmDriver
	ip    netstack.IP
}

func newFixture(opts Options, nDimms, nChannels int) *fixture {
	k := sim.NewKernel()
	costs := DefaultDriverCosts()
	fx := &fixture{k: k, hostIP: netstack.IPv4(192, 168, 1, 1)}
	fx.hostCPU = cpu.New(k, "host", 8, sim.GHz(3.4), cpu.DefaultOSCosts())
	fx.hostStk = netstack.NewStack(k, fx.hostCPU, "host", netstack.DefaultProtoCosts())
	fx.hostStk.ChecksumBypass = opts.ChecksumBypass
	for i := 0; i < nChannels; i++ {
		fx.channels = append(fx.channels, dram.NewChannel(k, dram.DDR4_3200()))
	}
	fx.hd = NewHostDriver(k, fx.hostCPU, fx.hostStk, opts, costs)
	for i := 0; i < nDimms; i++ {
		chIdx := i % nChannels
		d := NewDimm(k, fmt.Sprintf("dimm%d", i), fx.channels[chIdx], chIdx)
		mcnIP := netstack.IPv4(192, 168, 1, byte(i+2))
		port := fx.hd.AddDimm(d, fx.hostIP, mcnIP, i)
		mc := cpu.New(k, fmt.Sprintf("mcn%d", i), 4, sim.GHz(2.45), cpu.DefaultOSCosts())
		ms := netstack.NewStack(k, mc, fmt.Sprintf("mcn%d", i), netstack.DefaultProtoCosts())
		ms.SharePool(fx.hostStk)
		ms.ChecksumBypass = opts.ChecksumBypass
		local := dram.NewChannel(k, dram.DDR4_3200())
		drv := NewDimmDriver(k, mc, ms, local, d, port, opts, costs)
		ifc := ms.AddIface(drv, mcnIP, netstack.MaskNone)
		ifc.Neighbors[fx.hostIP] = port.hostMAC
		fx.mcns = append(fx.mcns, &mcnNode{cpu: mc, stack: ms, local: local, dimm: d, drv: drv, ip: mcnIP})
	}
	// MCN nodes learn each other's MCN-side MACs (pre-resolved ARP).
	for i, m := range fx.mcns {
		for j, o := range fx.mcns {
			if i != j {
				m.stack.Ifaces()[0].Neighbors[o.ip] = fx.hd.ports[j].mcnMAC
			}
		}
	}
	fx.hd.Start()
	return fx
}

func TestHostMcnPing(t *testing.T) {
	fx := newFixture(MCN0.Options(), 1, 1)
	var rtt sim.Duration
	var ok bool
	fx.k.Go("ping", func(p *sim.Proc) {
		rtt, ok = fx.hostStk.Ping(p, fx.mcns[0].ip, 56, sim.Second)
	})
	fx.k.RunUntil(sim.Time(sim.Second))
	if !ok {
		t.Fatal("host->mcn ping lost")
	}
	// Two polling intervals bound the RTT from above (5us timer), plus
	// costs; it must be far below a 10GbE RTT yet nonzero.
	if rtt < sim.Microsecond || rtt > 30*sim.Microsecond {
		t.Fatalf("host-mcn rtt=%v", rtt)
	}
	fx.k.Shutdown()
}

func TestMcnToMcnPingRoutesThroughHost(t *testing.T) {
	fx := newFixture(MCN0.Options(), 2, 1)
	var rttMM sim.Duration
	var ok bool
	fx.k.Go("ping", func(p *sim.Proc) {
		rttMM, ok = fx.mcns[0].stack.Ping(p, fx.mcns[1].ip, 56, sim.Second)
	})
	fx.k.RunUntil(sim.Time(sim.Second))
	if !ok {
		t.Fatal("mcn->mcn ping lost")
	}
	if fx.hd.RelayedDimm == 0 {
		t.Fatal("forwarding engine never relayed (F3)")
	}

	fx2 := newFixture(MCN0.Options(), 2, 1)
	var rttHM sim.Duration
	fx2.k.Go("ping", func(p *sim.Proc) {
		rttHM, _ = fx2.hostStk.Ping(p, fx2.mcns[0].ip, 56, sim.Second)
	})
	fx2.k.RunUntil(sim.Time(sim.Second))
	if rttMM <= rttHM {
		t.Fatalf("mcn-mcn rtt %v should exceed host-mcn rtt %v (two hops)", rttMM, rttHM)
	}
	fx.k.Shutdown()
	fx2.k.Shutdown()
}

func TestHostMcnTCPStreamIntact(t *testing.T) {
	fx := newFixture(MCN0.Options(), 1, 1)
	msg := bytes.Repeat([]byte("mcn-data!"), 4096) // ~36KB
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
	fx.k.RunUntil(sim.Time(2 * sim.Second))
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted: got %d want %d bytes", len(got), len(msg))
	}
	fx.k.Shutdown()
}

func TestMcnToHostTCP(t *testing.T) {
	fx := newFixture(MCN0.Options(), 1, 1)
	var total int
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.hostStk.Listen(5001)
		c, _ := l.Accept(p)
		total = c.RecvAll(p)
	})
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.mcns[0].stack.Connect(p, fx.hostIP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, 100*1024)
		c.Close(p)
	})
	fx.k.RunUntil(sim.Time(2 * sim.Second))
	if total != 100*1024 {
		t.Fatalf("host received %d bytes", total)
	}
	fx.k.Shutdown()
}

func TestAlertNRemovesPolling(t *testing.T) {
	fx := newFixture(MCN1.Options(), 1, 1)
	var ok bool
	fx.k.Go("ping", func(p *sim.Proc) {
		_, ok = fx.hostStk.Ping(p, fx.mcns[0].ip, 56, sim.Second)
	})
	fx.k.RunUntil(sim.Time(10 * sim.Millisecond))
	if !ok {
		t.Fatal("ping lost with ALERT_N")
	}
	if fx.hd.PollRounds != 0 {
		t.Fatalf("mcn1 should not run the periodic poller, saw %d rounds", fx.hd.PollRounds)
	}
	if fx.mcns[0].dimm.Alerts == 0 {
		t.Fatal("DIMM never asserted ALERT_N")
	}
	fx.k.Shutdown()
}

func TestAlertNImprovesLatency(t *testing.T) {
	rtt := func(opts Options) sim.Duration {
		fx := newFixture(opts, 1, 1)
		var r sim.Duration
		fx.k.Go("ping", func(p *sim.Proc) {
			r, _ = fx.hostStk.Ping(p, fx.mcns[0].ip, 56, sim.Second)
		})
		fx.k.RunUntil(sim.Time(sim.Second))
		fx.k.Shutdown()
		return r
	}
	r0, r1 := rtt(MCN0.Options()), rtt(MCN1.Options())
	if r1 >= r0 {
		t.Fatalf("ALERT_N rtt %v should beat polled rtt %v", r1, r0)
	}
}

func streamThroughput(t *testing.T, opts Options, total int) float64 {
	t.Helper()
	fx := newFixture(opts, 1, 1)
	var start, end sim.Time
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.mcns[0].stack.Listen(5001)
		c, _ := l.Accept(p)
		start = p.Now()
		c.RecvN(p, total)
		end = p.Now()
	})
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.hostStk.Connect(p, fx.mcns[0].ip, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, total)
	})
	fx.k.RunUntil(sim.Time(10 * sim.Second))
	fx.k.Shutdown()
	if end == 0 {
		t.Fatalf("stream did not complete under %+v", opts)
	}
	return float64(total) / end.Sub(start).Seconds()
}

func TestOptimizationLaddersBandwidth(t *testing.T) {
	const total = 8 << 20
	bw0 := streamThroughput(t, MCN0.Options(), total)
	bw3 := streamThroughput(t, MCN3.Options(), total)
	bw5 := streamThroughput(t, MCN5.Options(), total)
	if !(bw3 > bw0) {
		t.Fatalf("9KB MTU should raise bandwidth: mcn0=%.3g mcn3=%.3g", bw0, bw3)
	}
	if !(bw5 > bw0) {
		t.Fatalf("mcn5=%.3g should beat mcn0=%.3g", bw5, bw0)
	}
	// A single mcn0 stream is bound by the MCN processor's receive path;
	// Fig. 8(a)'s advantage comes from aggregating four clients. Still,
	// one stream must carry hundreds of MB/s.
	if bw0 < 0.4e9 {
		t.Fatalf("mcn0 bandwidth %.3g implausibly low", bw0)
	}
}

func TestDMAReducesHostCPUTime(t *testing.T) {
	busy := func(opts Options) sim.Duration {
		fx := newFixture(opts, 1, 1)
		fx.k.Go("server", func(p *sim.Proc) {
			l, _ := fx.mcns[0].stack.Listen(5001)
			c, _ := l.Accept(p)
			c.RecvN(p, 4<<20)
		})
		fx.k.Go("client", func(p *sim.Proc) {
			c, err := fx.hostStk.Connect(p, fx.mcns[0].ip, 5001)
			if err != nil {
				panic(err)
			}
			c.SendN(p, 4<<20)
		})
		fx.k.RunUntil(sim.Time(10 * sim.Second))
		b := fx.hostCPU.Busy.Busy
		fx.k.Shutdown()
		return b
	}
	with := busy(MCN5.Options())
	without := busy(MCN4.Options())
	if with >= without {
		t.Fatalf("MCN-DMA should cut host CPU time: mcn5=%v mcn4=%v", with, without)
	}
}

func TestForwardingBroadcast(t *testing.T) {
	fx := newFixture(MCN0.Options(), 3, 1)
	// Hand-craft a broadcast frame from MCN node 0.
	frame := make([]byte, netstack.EthHeaderBytes+netstack.IPv4HeaderBytes+30)
	netstack.PutEth(frame, netstack.EthHeader{
		Dst: netstack.BroadcastMAC, Src: fx.hd.ports[0].mcnMAC, Type: netstack.EtherTypeIPv4,
	})
	netstack.PutIPv4(frame[netstack.EthHeaderBytes:], netstack.IPv4Header{
		TotalLen: netstack.IPv4HeaderBytes + 30, TTL: 1, Proto: 253,
		Src: fx.mcns[0].ip, Dst: netstack.IPv4(255, 255, 255, 255),
	})
	fx.k.Go("bcast", func(p *sim.Proc) {
		fx.mcns[0].drv.Transmit(p, netstack.Frame{Data: frame})
	})
	fx.k.RunUntil(sim.Time(10 * sim.Millisecond))
	if fx.hd.Broadcasts != 1 {
		t.Fatalf("Broadcasts=%d, want 1", fx.hd.Broadcasts)
	}
	// F2: every *other* MCN node must have received a copy.
	if fx.mcns[1].drv.RxMsgs != 1 || fx.mcns[2].drv.RxMsgs != 1 {
		t.Fatalf("broadcast fan-out: node1=%d node2=%d", fx.mcns[1].drv.RxMsgs, fx.mcns[2].drv.RxMsgs)
	}
	if fx.mcns[0].drv.RxMsgs != 0 {
		t.Fatal("broadcast echoed to its source")
	}
	fx.k.Shutdown()
}

// TestNetdevTxBusyBackpressure floods a DIMM's TX ring while the host
// does not drain it, once through the qdisc (MCN0) and once through the
// MCN-DMA engine (MCN5), then lets the host drain again.
func TestNetdevTxBusyBackpressure(t *testing.T) {
	cases := []struct {
		level         OptLevel
		pause, resume func(fx *fixture)
	}{
		{MCN0,
			func(fx *fixture) { fx.hd.timer.Stop() },
			func(fx *fixture) { fx.hd.Start() }},
		{MCN5,
			func(fx *fixture) { fx.mcns[0].dimm.SetAlertN(nil) },
			func(fx *fixture) {
				port := fx.hd.ports[0]
				fx.mcns[0].dimm.SetAlertN(func() { fx.hd.onAlert(port) })
				fx.hd.kick(port)
			}},
	}
	for _, c := range cases {
		t.Run(c.level.String(), func(t *testing.T) {
			fx := newFixture(c.level.Options(), 1, 1)
			defer fx.k.Shutdown()
			c.pause(fx) // host never drains: the TX ring must fill
			fx.k.Go("flood", func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					// dev_queue_xmit never blocks the caller...
					fx.mcns[0].drv.Transmit(p, netstack.Frame{Data: make([]byte, 8192)})
				}
			})
			fx.k.RunUntil(sim.Time(100 * sim.Microsecond))
			// ...but T1-T3 hits NETDEV_TX_BUSY on the full ring and keeps
			// the overflow queued rather than dropped.
			drv := fx.mcns[0].drv
			if drv.TxBusy == 0 {
				t.Fatal("driver never reported NETDEV_TX_BUSY")
			}
			if free := fx.mcns[0].dimm.Buf.TX.Free(); free > 16384 {
				t.Fatalf("TX ring should be nearly full, free=%d", free)
			}
			if drv.TxMsgs >= 10 {
				t.Fatalf("all %d messages fit a full ring?", drv.TxMsgs)
			}
			c.resume(fx)
			fx.k.RunUntil(fx.k.Now().Add(sim.Millisecond))
			if drv.TxMsgs != 10 {
				t.Fatalf("TxMsgs=%d after the host resumed draining, want 10", drv.TxMsgs)
			}
		})
	}
}

// siteLog is a test tap: it counts every frame per site and device, and
// keeps the latest crossing of each site by a frame of at least minLen
// bytes.
type siteLog struct {
	minLen int
	count  map[string]int // "site@dev"
	at     map[netstack.TapSite]sim.Time
}

func newSiteLog(minLen int) *siteLog {
	return &siteLog{minLen: minLen, count: map[string]int{}, at: map[netstack.TapSite]sim.Time{}}
}

func (l *siteLog) Frame(at sim.Time, site netstack.TapSite, dev string, frame []byte) {
	l.count[site.String()+"@"+dev]++
	if len(frame) >= l.minLen {
		l.at[site] = at
	}
}

// TestMcnStampsTable3Shape reads the MCN row of Table III off the frame
// taps: the DIMM stack's TX, the DIMM driver's TX-ring push, the host
// drain's pop and the host stack's RX.
func TestMcnStampsTable3Shape(t *testing.T) {
	fx := newFixture(MCN0.Options(), 1, 1)
	tap := newSiteLog(1000)
	fx.hostStk.Tap, fx.hd.ChanTap = tap, tap
	fx.mcns[0].stack.Tap, fx.mcns[0].drv.ChanTap = tap, tap
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.hostStk.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 1400)
	})
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.mcns[0].stack.Connect(p, fx.hostIP, 5001)
		if err != nil {
			panic(err)
		}
		c.SendN(p, 1400)
	})
	fx.k.RunUntil(sim.Time(sim.Second))
	tx, push, pop, rx := tap.at[netstack.TapTx], tap.at[netstack.TapDimmPush], tap.at[netstack.TapHostPop], tap.at[netstack.TapRx]
	if tx == 0 {
		t.Fatal("no MCN trace captured")
	}
	if !(tx < push && push <= pop && pop < rx) {
		t.Fatalf("sites out of order: tx=%v dimm-push=%v host-pop=%v rx=%v", tx, push, pop, rx)
	}
	// There is no PHY/DMA stage: the gap between the push and the pop is
	// pure polling delay, bounded by the poll interval plus service.
	if gap := pop.Sub(push); gap > 2*DefaultPollInterval {
		t.Fatalf("polling gap %v exceeds two poll intervals", gap)
	}
	fx.k.Shutdown()
}

// TestChannelFlowBalance checks that the channel taps account for every
// ring message: mid-traffic, per DIMM and per direction, the pushes seen
// equal the pops seen plus the messages still in the ring, so a drain path
// that skips its tap fails here. mcn0 drains the TX rings from a polled
// process, mcn1 from an ALERT_N-spawned one and mcn5 with the MCN-DMA
// engines. Both DIMMs carry a TCP stream (one each way) and the ping
// between them relays through the host.
func TestChannelFlowBalance(t *testing.T) {
	for _, level := range []OptLevel{MCN0, MCN1, MCN5} {
		t.Run(level.String(), func(t *testing.T) {
			fx := newFixture(level.Options(), 2, 2)
			defer fx.k.Shutdown()
			tap := newSiteLog(0)
			fx.hd.ChanTap = tap
			for _, m := range fx.mcns {
				m.drv.ChanTap = tap
			}
			stream := func(from, to *netstack.Stack, toIP netstack.IP) {
				fx.k.Go("server", func(p *sim.Proc) {
					l, _ := to.Listen(5001)
					c, _ := l.Accept(p)
					c.RecvN(p, 4<<20)
				})
				fx.k.Go("client", func(p *sim.Proc) {
					c, err := from.Connect(p, toIP, 5001)
					if err != nil {
						t.Error(err)
						return
					}
					c.SendN(p, 4<<20)
				})
			}
			stream(fx.hostStk, fx.mcns[0].stack, fx.mcns[0].ip)
			stream(fx.mcns[1].stack, fx.hostStk, fx.hostIP)
			fx.k.Go("ping", func(p *sim.Proc) {
				if _, ok := fx.mcns[0].stack.Ping(p, fx.mcns[1].ip, 56, sim.Second); !ok {
					t.Error("mcn-mcn ping lost")
				}
			})
			fx.k.RunUntil(sim.Time(500 * sim.Microsecond))
			// The kernel is stopped: count what each ring still holds.
			held := func(r *sram.Ring) int {
				n := 0
				for ; !r.Empty(); n++ {
					r.Pop()
				}
				return n
			}
			for _, m := range fx.mcns {
				d := m.dimm
				for _, dir := range []struct {
					push, pop netstack.TapSite
					ring      *sram.Ring
				}{
					{netstack.TapChanPush, netstack.TapDimmPop, d.Buf.RX},
					{netstack.TapDimmPush, netstack.TapHostPop, d.Buf.TX},
				} {
					push := tap.count[dir.push.String()+"@"+d.Name]
					pop := tap.count[dir.pop.String()+"@"+d.Name]
					occ := held(dir.ring)
					t.Logf("%s %v/%v: %d pushed, %d popped, %d held", d.Name, dir.push, dir.pop, push, pop, occ)
					if pop == 0 || push != pop+occ {
						t.Errorf("%s: %d %v != %d %v + %d held", d.Name, push, dir.push, pop, dir.pop, occ)
					}
				}
			}
		})
	}
}

func TestSRAMTrafficContendssOnGlobalChannel(t *testing.T) {
	// MCN traffic must show up as traffic on the DIMM's host channel —
	// that is the "memory channel as network PHY" property.
	fx := newFixture(MCN0.Options(), 1, 1)
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.hostStk.Connect(p, fx.mcns[0].ip, 5001)
		_ = c
		_ = err
	})
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.mcns[0].stack.Listen(5001)
		c, _ := l.Accept(p)
		c.RecvN(p, 1<<20)
	})
	fx.k.Go("client2", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		c, err := fx.hostStk.Connect(p, fx.mcns[0].ip, 5001)
		if err != nil {
			return
		}
		c.SendN(p, 1<<20)
	})
	fx.k.RunUntil(sim.Time(2 * sim.Second))
	if fx.channels[0].Bytes.Total < 1<<20 {
		t.Fatalf("global channel saw only %d bytes", fx.channels[0].Bytes.Total)
	}
	fx.k.Shutdown()
}

func TestWriteCombiningSpeedsUpCopies(t *testing.T) {
	// Sec. III-B's memory mapping unit: write-combining (cacheline
	// transactions) must clearly beat naive 8-byte uncached accesses.
	stream := func(uncached bool) float64 {
		opts := MCN3.Options()
		opts.UncachedCopies = uncached
		return streamThroughput(t, opts, 2<<20)
	}
	wc, uc := stream(false), stream(true)
	if wc <= uc {
		t.Fatalf("write combining (%.3g B/s) should beat uncached (%.3g B/s)", wc, uc)
	}
	if wc < 2*uc {
		t.Logf("note: WC speedup only %.2fx", wc/uc)
	}
}

func TestAlertNeverLosesWakeups(t *testing.T) {
	// Stress the edge-triggered ALERT_N path: many small bursts with
	// gaps sized near the drain's linger window; every message must be
	// delivered.
	fx := newFixture(MCN1.Options(), 1, 1)
	const msgs = 400
	received := 0
	fx.k.Go("sink-count", func(p *sim.Proc) {})
	fx.mcns[0].stack.ChecksumBypass = true
	fx.k.Go("server", func(p *sim.Proc) {
		l, _ := fx.hostStk.Listen(6001)
		c, _ := l.Accept(p)
		buf := make([]byte, 256)
		for received < msgs {
			n, ok := c.Recv(p, buf)
			received += n / 128
			if !ok {
				return
			}
		}
	})
	fx.k.Go("client", func(p *sim.Proc) {
		c, err := fx.mcns[0].stack.Connect(p, fx.hostIP, 6001)
		if err != nil {
			panic(err)
		}
		msg := make([]byte, 128)
		for i := 0; i < msgs; i++ {
			c.Send(p, msg)
			// Gaps straddle the NAPI linger boundary to hunt races.
			p.Sleep(sim.Duration(1+i%7) * sim.Microsecond)
		}
	})
	fx.k.RunUntil(sim.Time(5 * sim.Second))
	if received != msgs {
		t.Fatalf("delivered %d/%d messages; a wakeup was lost", received, msgs)
	}
	fx.k.Shutdown()
}
