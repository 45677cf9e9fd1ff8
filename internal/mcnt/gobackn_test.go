package mcnt

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/faults"
	"github.com/mcn-arch/mcn/internal/sim"
)

// lossyStreams streams total bytes from the host to a DIMM in sendSize
// Sends, read back with recvSize buffers, while the memory channel loses
// frames with probability loss; with twoWay a second stream runs from the
// DIMM to the host at the same time. Acks land while go-back-N resend
// bursts are on the wire, so a burst must follow the live resend queue.
// It fails t unless every stream delivers its exact bytes, closes, and
// leaves the fabric's accounting clean.
func lossyStreams(t testing.TB, seed uint64, loss float64, total, sendSize, recvSize int, twoWay bool) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Shutdown()
	s := cluster.NewMcnServer(k, 1, core.MCN5.Options())
	f := Attach(k, s.Host, DefaultParams())
	s.InjectFaults(faults.New(faults.Plan{Seed: seed, McnLossProb: loss}))
	type flow struct {
		msg, got []byte
		done     bool
	}
	var flows []*flow
	start := func(port uint16, from, to int) {
		nodes := []*cluster.Endpoint{{Node: s.Host.Node, IP: s.Host.HostMcnIP()}, {Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}}
		src, dst := nodes[from], nodes[to]
		fl := &flow{msg: pattern(total)}
		flows = append(flows, fl)
		k.Go("rx", func(p *sim.Proc) {
			ln, err := f.Listen(dst.Node, port)
			if err != nil {
				t.Error(err)
				return
			}
			nc, err := ln.AcceptConn(p)
			if err != nil {
				t.Error(err)
				return
			}
			c := nc.(*Conn)
			buf := make([]byte, recvSize)
			for {
				n, ok := c.Recv(p, buf)
				fl.got = append(fl.got, buf[:n]...)
				if !ok {
					break
				}
			}
			c.Close(p)
			fl.done = true
		})
		k.Go("tx", func(p *sim.Proc) {
			c, err := f.Dial(p, src.Node, dst.IP, port)
			if err != nil {
				t.Error(err)
				return
			}
			for off := 0; off < total; off += sendSize {
				if err := c.Send(p, fl.msg[off:min(off+sendSize, total)]); err != nil {
					t.Error(err)
					return
				}
			}
			c.Close(p)
		})
	}
	start(5100, 0, 1)
	if twoWay {
		start(5101, 1, 0)
	}
	// Step until every stream is closed, then give the last acks time to
	// land: a lost one costs a resend timeout.
	for end := k.Now().Add(5 * sim.Second); k.Now() < end; {
		k.RunFor(sim.Millisecond)
		done := true
		for _, fl := range flows {
			done = done && fl.done
		}
		if done {
			k.RunFor(50 * sim.Millisecond)
			break
		}
	}
	for i, fl := range flows {
		if !fl.done || !bytes.Equal(fl.got, fl.msg) {
			t.Fatalf("seed %d loss %v flow %d: delivered %d/%d bytes, intact=%v, closed=%v (%s)",
				seed, loss, i, len(fl.got), total, bytes.Equal(fl.got, fl.msg), fl.done, f)
		}
	}
	if bad := f.CheckAccounting(); len(bad) != 0 {
		t.Fatalf("seed %d loss %v: accounting drift:\n%s", seed, loss, bad)
	}
}

// TestGoBackNAckDuringResend runs 128KB streams in 3000-byte Sends with 4KB
// receive buffers over a lossy channel, one way and both ways at once.
// Acks land in the middle of resend bursts: a burst that indexed the
// queue as it was when the burst began panicked in 73 of the 120 one-way
// cases and in 101 of the 120 two-way ones.
func TestGoBackNAckDuringResend(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.2} {
		for _, twoWay := range []bool{false, true} {
			for seed := uint64(1); seed <= 40; seed++ {
				t.Run(fmt.Sprintf("loss=%v/two-way=%v/seed=%d", loss, twoWay, seed), func(t *testing.T) {
					lossyStreams(t, seed, loss, 128<<10, 3000, 4096, twoWay)
				})
			}
		}
	}
}

// FuzzGoBackNUnderLoss streams 128KB over a lossy channel with fuzzed
// seeds, loss rates (0 to 30%), send sizes (from 256 bytes), receive
// buffer sizes (from 64 bytes) and directions: every byte arrives exactly
// once and the accounting ends clean. The committed corpus holds cases
// that panicked when a resend burst indexed a stale queue.
func FuzzGoBackNUnderLoss(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint16(3000), uint16(4096), false)
	f.Add(uint64(3), uint8(1), uint16(3000), uint16(4096), true)
	f.Add(uint64(7), uint8(20), uint16(9000), uint16(512), true)
	f.Add(uint64(11), uint8(2), uint16(65535), uint16(8192), false)
	f.Fuzz(func(t *testing.T, seed uint64, lossPct uint8, sendSize, recvSize uint16, twoWay bool) {
		loss := float64(lossPct%31) / 100
		lossyStreams(t, seed, loss, 128<<10, max(256, int(sendSize)), max(64, int(recvSize)), twoWay)
	})
}
