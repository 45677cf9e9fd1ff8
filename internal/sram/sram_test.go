package sram

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// refRing is the byte-copying ring the package used to ship: every Push
// copies the length header and payload into a backing array, every Pop
// copies them back out. It is the reference FuzzRingMatchesReference
// holds Ring to.
type refRing struct {
	data  []byte
	start int
	end   int
}

func newRefRing(capacity int) *refRing { return &refRing{data: make([]byte, capacity)} }

func (r *refRing) Used() int {
	d := r.end - r.start
	if d < 0 {
		d += len(r.data)
	}
	return d
}

func (r *refRing) Free() int { return len(r.data) - 1 - r.Used() }

func (r *refRing) Empty() bool { return r.start == r.end }

func (r *refRing) Push(packet []byte) bool {
	need := HeaderBytes + len(packet)
	if need > r.Free() {
		return false
	}
	var hdr [HeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(packet)))
	r.write(r.end, hdr[:])
	r.write((r.end+HeaderBytes)%len(r.data), packet)
	r.end = (r.end + need) % len(r.data)
	return true
}

func (r *refRing) Pop() []byte {
	if r.Empty() {
		return nil
	}
	var hdr [HeaderBytes]byte
	r.read(r.start, hdr[:])
	out := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	r.read((r.start+HeaderBytes)%len(r.data), out)
	r.start = (r.start + HeaderBytes + len(out)) % len(r.data)
	return out
}

func (r *refRing) write(off int, b []byte) {
	n := copy(r.data[off:], b)
	if n < len(b) {
		copy(r.data, b[n:])
	}
}

func (r *refRing) read(off int, b []byte) {
	n := copy(b, r.data[off:])
	if n < len(b) {
		copy(b[n:], r.data)
	}
}

// FuzzRingMatchesReference drives Ring and refRing with the same push/pop
// sequence and requires the same Push results, the same Used/Free/Empty
// after every step and the same popped bytes. The first byte picks the
// capacity; each later byte is one step: an even byte pushes a message of
// (byte/2)*step bytes, an odd one pops. Every pushed message gets its own
// buffer, as the drivers' frames do.
func FuzzRingMatchesReference(f *testing.F) {
	f.Add([]byte{0, 2, 2, 1, 1, 1})                                   // push, push, pop past empty
	f.Add([]byte{59, 20, 20, 1, 20, 1, 20, 1, 20, 1, 20, 1, 1, 1, 1}) // start/end wrap a 64-byte ring
	f.Add([]byte{10, 20, 2, 1, 2, 1})                                 // exactly full, then busy
	f.Add([]byte{200, 40, 40, 40, 1, 40, 1, 1, 1})                    // 80-byte messages
	f.Add([]byte{3, 0, 0, 1, 0, 1, 1})                                // zero-length messages
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := HeaderBytes + 1 + int(ops[0])
		step := 1 + int(ops[0])/64
		r, ref := NewRing(capacity), newRefRing(capacity)
		next := byte(0)
		for i, op := range ops[1:] {
			if op%2 == 0 {
				msg := make([]byte, int(op/2)*step)
				for j := range msg {
					msg[j] = next
					next++
				}
				got, want := r.Push(msg), ref.Push(msg)
				if got != want {
					t.Fatalf("step %d: Push(%d bytes) = %v, reference %v", i, len(msg), got, want)
				}
			} else {
				got, want := r.Pop(), ref.Pop()
				if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Pop = %v, reference %v", i, got, want)
				}
			}
			if r.Used() != ref.Used() || r.Free() != ref.Free() || r.Empty() != ref.Empty() {
				t.Fatalf("step %d: used/free/empty %d/%d/%v, reference %d/%d/%v",
					i, r.Used(), r.Free(), r.Empty(), ref.Used(), ref.Free(), ref.Empty())
			}
		}
	})
}

func TestPushPopFIFO(t *testing.T) {
	r := NewRing(1024)
	msgs := [][]byte{[]byte("alpha"), []byte("b"), []byte("gamma-gamma")}
	for _, m := range msgs {
		if !r.Push(m) {
			t.Fatalf("push %q failed", m)
		}
	}
	for _, want := range msgs {
		got := r.Pop()
		if !bytes.Equal(got, want) {
			t.Fatalf("pop = %q, want %q", got, want)
		}
	}
	if !r.Empty() {
		t.Fatal("ring should be empty")
	}
	if r.Pop() != nil {
		t.Fatal("pop on empty should be nil")
	}
}

func TestPushFailsWhenFull(t *testing.T) {
	r := NewRing(64)
	big := make([]byte, 60) // 60+4 = 64 > 63 usable
	if r.Push(big) {
		t.Fatal("push should fail: message exactly fills capacity (one byte reserved)")
	}
	ok := r.Push(make([]byte, 59)) // 63 = exactly the usable space
	if !ok {
		t.Fatal("59-byte message should fit in a 64-byte ring")
	}
	if r.Free() != 0 {
		t.Fatalf("free=%d, want 0", r.Free())
	}
	if r.Push([]byte{1}) {
		t.Fatal("push into full ring should report NETDEV_TX_BUSY")
	}
}

func TestWraparound(t *testing.T) {
	r := NewRing(32)
	// Fill and drain repeatedly so start/end wrap several times.
	for i := 0; i < 100; i++ {
		msg := []byte{byte(i), byte(i + 1), byte(i + 2)}
		if !r.Push(msg) {
			t.Fatalf("push %d failed with used=%d", i, r.Used())
		}
		got := r.Pop()
		if !bytes.Equal(got, msg) {
			t.Fatalf("iteration %d: got %v want %v", i, got, msg)
		}
	}
}

// TestPopHandsOverPushedBuffer pins the ownership rule the drivers rely
// on: Pop returns the very buffer Push was given, and PopWith copies it
// into the caller's buffer instead.
func TestPopHandsOverPushedBuffer(t *testing.T) {
	r := NewRing(128)
	pkt := []byte("hello")
	r.Push(pkt)
	if got := r.Pop(); &got[0] != &pkt[0] {
		t.Fatal("Pop returned a copy, not the pushed buffer")
	}
	r.Push(pkt)
	out := make([]byte, len(pkt))
	got := r.PopWith(func(n int) []byte { return out[:n] })
	if &got[0] != &out[0] || !bytes.Equal(got, pkt) {
		t.Fatalf("PopWith = %q, not a copy into the supplied buffer", got)
	}
	if r.PopWith(func(int) []byte { t.Fatal("alloc on empty ring"); return nil }) != nil {
		t.Fatal("PopWith on empty should be nil")
	}
}

func TestUsedFreeInvariant(t *testing.T) {
	// Property: after any sequence of pushes and pops, Used+Free equals
	// capacity-1 and popped data equals pushed data in order.
	f := func(ops []uint8) bool {
		r := NewRing(256)
		var pending [][]byte
		next := byte(0)
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op/2) % 40
				msg := make([]byte, n)
				for i := range msg {
					msg[i] = next
					next++
				}
				if r.Push(msg) {
					pending = append(pending, msg)
				}
			} else {
				got := r.Pop()
				if len(pending) == 0 {
					if got != nil {
						return false
					}
				} else {
					if !bytes.Equal(got, pending[0]) {
						return false
					}
					pending = pending[1:]
				}
			}
			if r.Used()+r.Free() != r.capacity-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	r := NewRing(64)
	if !r.Push(nil) {
		t.Fatal("zero-length message should push")
	}
	got := r.Pop()
	if got == nil || len(got) != 0 {
		t.Fatalf("pop of empty message = %v", got)
	}
}

func TestBufferLayout(t *testing.T) {
	b := NewDefault()
	// 96KB minus control, split evenly.
	want := (DefaultSize - 64) / 2
	if b.TX.capacity != want || b.RX.capacity != want {
		t.Fatalf("ring capacities %d/%d, want %d", b.TX.capacity, b.RX.capacity, want)
	}
	// The rings must comfortably hold a 9KB jumbo MCN message plus a TSO
	// chunk; Sec. IV-A requires the buffers to fit the largest chunk the
	// network stack can hand down.
	if b.TX.Free() < 40*1024 {
		t.Fatalf("TX free %d too small for TSO chunks", b.TX.Free())
	}
}

func TestPollFlags(t *testing.T) {
	b := New(4096)
	if b.TxPoll || b.RxPoll {
		t.Fatal("poll flags must start clear")
	}
	b.TX.Push([]byte("pkt"))
	b.TxPoll = true // driver step T3
	if !b.TxPoll {
		t.Fatal("TxPoll lost")
	}
	_ = b.TX.Pop()
	if b.TX.Used() != 0 {
		t.Fatal("ring should drain")
	}
}
