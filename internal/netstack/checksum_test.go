package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/mcn-arch/mcn/internal/sim"
)

// refChecksumAdd is the reference for checksumAdd: the plain RFC 1071 loop
// that adds one 16-bit word per iteration. It accumulates in 64 bits; the
// same loop with a 32-bit accumulator overflows past 128 KiB of input.
func refChecksumAdd(sum uint64, b []byte) uint64 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint64(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint64(b[len(b)-1]) << 8
	}
	return sum
}

// refChecksumFold folds the reference sum's carries and complements it.
func refChecksumFold(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// maxChecksumFuzzBytes caps the tiled fuzz buffer.
const maxChecksumFuzzBytes = 1 << 18

// checkChecksumMatchesReference sums b from seed in chained calls, cut
// every `cut` bytes (rounded down to even; 0 means one call), and compares
// the folded result and each partial sum's width with the reference.
func checkChecksumMatchesReference(t testing.TB, b []byte, seed uint32, cut int) {
	t.Helper()
	want := refChecksumFold(refChecksumAdd(uint64(seed), b))
	cut &^= 1
	if cut == 0 {
		cut = len(b) + 1
	}
	sum := seed
	for rest := b; ; rest = rest[cut:] {
		if len(rest) <= cut {
			sum = checksumAdd(sum, rest)
			break
		}
		sum = checksumAdd(sum, rest[:cut])
		if sum>>16 != 0 {
			t.Fatalf("partial sum %#x is wider than 16 bits", sum)
		}
	}
	if got := checksumFold(sum); got != want {
		t.Fatalf("len %d seed %#x cut %d: checksum %#04x, reference %#04x", len(b), seed, cut, got, want)
	}
}

// FuzzChecksumMatchesReference: the word-wide kernel, called in chained
// even-offset parts from a nonzero seed, folds to exactly the reference
// loop's checksum. The buffer is b tiled tile+1 times, so a short corpus
// entry can reach past 128 KiB.
func FuzzChecksumMatchesReference(f *testing.F) {
	f.Add([]byte{0xab, 0xcd, 0xef}, uint32(0x1234), uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint32(0xffff), uint16(6), uint8(3))
	f.Add(make([]byte, 40), uint32(0), uint16(10), uint8(1))
	// The kernel's word and block edges, all ones from the largest seed:
	// a kernel that adds the seed after folding the words overflows here.
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		f.Add(bytes.Repeat([]byte{0xff}, n), uint32(0xffffffff), uint16(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, b []byte, seed uint32, cut uint16, tile uint8) {
		n := len(b) * (int(tile) + 1)
		if n > maxChecksumFuzzBytes {
			t.Skip()
		}
		checkChecksumMatchesReference(t, bytes.Repeat(b, int(tile)+1), seed, int(cut))
	})
}

// TestChecksumMatchesReference runs the differential check over random,
// all-0xFF, all-zero and sparse buffers of every length up to 300 bytes
// and a spread of lengths up to 70 KB, whole and in even-offset splits.
func TestChecksumMatchesReference(t *testing.T) {
	rng := sim.NewRNG(1071, "checksum")
	fill := func(b []byte, kind int) {
		for i := range b {
			switch kind {
			case 0:
				b[i] = byte(rng.Uint64())
			case 1:
				b[i] = 0xff
			case 2:
				b[i] = 0
			default:
				b[i] = 0
				if rng.Uint64()%97 == 0 {
					b[i] = byte(rng.Uint64())
				}
			}
		}
	}
	lengths := make([]int, 0, 340)
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, rng.Intn(70_000))
	}
	buf := make([]byte, 70_000)
	for _, n := range lengths {
		for kind := 0; kind < 4; kind++ {
			b := buf[:n]
			fill(b, kind)
			seed := uint32(rng.Uint64())
			checkChecksumMatchesReference(t, b, 0, 0)
			checkChecksumMatchesReference(t, b, seed, rng.Intn(n+2))
		}
	}
}

func BenchmarkChecksum9000(b *testing.B) {
	buf := make([]byte, 9000)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(buf)))
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink += Checksum(buf)
	}
	_ = sink
}

func BenchmarkChecksum1448(b *testing.B) {
	buf := make([]byte, 1448)
	b.SetBytes(int64(len(buf)))
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink += Checksum(buf)
	}
	_ = sink
}
