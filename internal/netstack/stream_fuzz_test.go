package netstack

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

// FuzzTCPStreamIntegrity runs one TCP connection over a lossy, reordering
// wireDev pair and requires each direction to deliver exactly the bytes
// its sender wrote. The seed picks the MTU, the Send sizes (1 B to
// 300 KB), the Recv buffer sizes and the reader's pauses, so the send and
// receive rings wrap, grow while wrapped and are read across the wrap
// point; dropA/dropB pick each direction's drop cadence and reorder the
// share of a->b frames held back.
func FuzzTCPStreamIntegrity(f *testing.F) {
	f.Add(uint64(1), false, byte(0), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, tso bool, dropA, dropB, reorder byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		mtu := 1500
		if rng.Intn(2) == 0 {
			mtu = 9000
		}
		pr := newPair(t, mtu, tso)
		pr.ad.dropEvery = dropCadence(dropA)
		pr.bd.dropEvery = dropCadence(dropB)
		if reorder%4 != 0 {
			jit := rand.New(rand.NewSource(int64(seed) + 1))
			pr.ad.jitterFn = func() sim.Duration {
				if jit.Intn(int(reorder%4)*4) == 0 {
					return sim.Microsecond + sim.Duration(jit.Intn(40))*sim.Microsecond
				}
				return sim.Microsecond
			}
		}
		want := [2][]byte{streamPattern(rng), streamPattern(rng)}
		var got [2][]byte // bytes delivered per direction, as want
		// End dir sends direction dir in random slices while a second
		// process reads direction 1-dir until end of stream. The client
		// closes once its sends are done; the server closes passively,
		// once its sends are done and it has read the client's FIN.
		pending := [2]int{1, 2}
		done := func(p *sim.Proc, c *TCPConn, dir int) {
			if pending[dir]--; pending[dir] == 0 {
				c.Close(p)
			}
		}
		run := func(p *sim.Proc, c *TCPConn, dir int, prng *rand.Rand) {
			pr.k.Go("tx", func(tp *sim.Proc) {
				for b := want[dir]; len(b) > 0; {
					n := min(len(b), 1+prng.Intn(2048))
					if prng.Intn(2) == 0 {
						n = min(len(b), 1+prng.Intn(300<<10))
					}
					if err := c.Send(tp, b[:n]); err != nil {
						panic(err)
					}
					b = b[n:]
				}
				done(tp, c, dir)
			})
			rrng := rand.New(rand.NewSource(prng.Int63()))
			buf := make([]byte, 64<<10)
			for {
				n, ok := c.Recv(p, buf[:1+rrng.Intn(len(buf))])
				got[1-dir] = append(got[1-dir], buf[:n]...)
				if !ok {
					done(p, c, dir)
					return
				}
				if rrng.Intn(2) == 0 {
					p.Sleep(sim.Duration(rrng.Intn(100)) * sim.Microsecond)
				}
			}
		}
		pr.k.Go("server", func(p *sim.Proc) {
			l, _ := pr.b.Listen(5001)
			c, err := l.Accept(p)
			if err != nil {
				panic(err)
			}
			run(p, c, 1, rand.New(rand.NewSource(int64(seed)+2)))
		})
		pr.k.Go("client", func(p *sim.Proc) {
			c, err := pr.a.Connect(p, IPv4(10, 0, 0, 2), 5001)
			if err != nil {
				panic(err)
			}
			run(p, c, 0, rand.New(rand.NewSource(int64(seed)+3)))
		})
		pr.k.RunUntil(sim.Time(60 * sim.Second))
		pr.k.Shutdown()
		for dir, name := range []string{"a->b", "b->a"} {
			if !bytes.Equal(got[dir], want[dir]) {
				t.Fatalf("%s: delivered %d bytes, sent %d; first difference at %d",
					name, len(got[dir]), len(want[dir]), firstDiff(got[dir], want[dir]))
			}
		}
	})
}

// dropCadence maps a fuzz byte to a wireDev dropEvery: a quarter of the
// values give a clean link, the rest lose every 8th to 39th frame.
func dropCadence(b byte) int {
	if b%4 == 0 {
		return 0
	}
	return 8 + int(b)%32
}

// streamPattern returns 1 MB to 4 MB of seeded random bytes.
func streamPattern(rng *rand.Rand) []byte {
	b := make([]byte, 1<<20+rng.Intn(3<<20))
	rng.Read(b)
	return b
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
