package netstack

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestByteRingMatchesSliceModel drives a ByteRing and a plain []byte FIFO
// with the same random Write/Discard/CopyAt sequence and requires equal
// contents after every step. Writes range past the current capacity so
// the ring grows while its contents wrap, and reads start at random
// offsets so they straddle the wrap point.
func TestByteRingMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r ByteRing
		var model []byte
		next := byte(0)
		grewWrapped := false
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(3); {
			case op == 0:
				b := make([]byte, rng.Intn(3*ringMinBytes))
				for i := range b {
					b[i] = next
					next = next*7 + 13
				}
				wrapped, size := r.head+r.n > len(r.buf), len(r.buf)
				r.Write(b)
				model = append(model, b...)
				grewWrapped = grewWrapped || (wrapped && len(r.buf) > size)
			case op == 1 && len(model) > 0:
				n := rng.Intn(len(model) + 1)
				r.Discard(n)
				model = model[n:]
			default:
				off := 0
				if len(model) > 0 {
					off = rng.Intn(len(model) + 1)
				}
				dst := make([]byte, rng.Intn(2*ringMinBytes))
				n := r.CopyAt(dst, off)
				want := 0
				if off < len(model) {
					want = min(len(dst), len(model)-off)
				}
				if n != want || !bytes.Equal(dst[:n], model[off:off+n]) {
					t.Fatalf("seed %d step %d: CopyAt(len %d, off %d) = %d bytes, model has %d from there",
						seed, step, len(dst), off, n, len(model)-off)
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, r.Len(), len(model))
			}
		}
		all := make([]byte, r.Len())
		if r.CopyAt(all, 0); !bytes.Equal(all, model) {
			t.Fatalf("seed %d: final contents differ from the model", seed)
		}
		if !grewWrapped {
			t.Fatalf("seed %d: the ring never grew while wrapped", seed)
		}
	}
}
