package sram

import (
	"bytes"
	"testing"
	"testing/quick"
)

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

func TestPeekDoesNotConsume(t *testing.T) {
	r := NewRing(128)
	r.Push([]byte("hello"))
	if got := r.peekWith(stdAlloc); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("peek = %q", got)
	}
	if r.Used() != 9 { // 4 header + 5 payload
		t.Fatalf("used=%d after peek, want 9", r.Used())
	}
	if got := r.Pop(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("pop = %q", got)
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
			if r.Used()+r.Free() != len(r.data)-1 {
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
	if len(b.TX.data) != want || len(b.RX.data) != want {
		t.Fatalf("ring capacities %d/%d, want %d", len(b.TX.data), len(b.RX.data), want)
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
