package memmap

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestChannelRoundRobin(t *testing.T) {
	iv := Interleave{Channels: 2}
	// Fig. 6: consecutive cachelines alternate between channels.
	for line := 0; line < 8; line++ {
		addr := uint64(line * LineBytes)
		if got, want := iv.Channel(addr), line%2; got != want {
			t.Fatalf("line %d -> channel %d, want %d", line, got, want)
		}
	}
}

func TestChannelOffsetDensePerChannel(t *testing.T) {
	iv := Interleave{Channels: 4}
	// Within one channel, successive owned lines have successive local
	// offsets: the DIMM sees a dense address space.
	for i := 0; i < 16; i++ {
		addr := uint64((i*4 + 1) * LineBytes) // all lines on channel 1
		if iv.Channel(addr) != 1 {
			t.Fatalf("addr %#x not on channel 1", addr)
		}
		if got, want := iv.ChannelOffset(addr), uint64(i*LineBytes); got != want {
			t.Fatalf("ChannelOffset(%#x) = %#x, want %#x", addr, got, want)
		}
	}
}

func TestHostAddrInverseProperty(t *testing.T) {
	// Property: HostAddr(Channel(a), ChannelOffset(a)) == a for any
	// address and channel count.
	f := func(addr uint64, chRaw uint8) bool {
		channels := int(chRaw)%8 + 1
		iv := Interleave{Channels: channels}
		addr %= 1 << 40
		return iv.HostAddr(iv.Channel(addr), iv.ChannelOffset(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannelPartitionProperty(t *testing.T) {
	// Property: the (channel, offset) decomposition is injective — two
	// distinct addresses never collide.
	f := func(a, b uint64, chRaw uint8) bool {
		channels := int(chRaw)%8 + 1
		iv := Interleave{Channels: channels}
		a %= 1 << 40
		b %= 1 << 40
		if a == b {
			return true
		}
		return !(iv.Channel(a) == iv.Channel(b) && iv.ChannelOffset(a) == iv.ChannelOffset(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedCopyPlacesDataAndStaysOnChannel(t *testing.T) {
	iv := Interleave{Channels: 2}
	hostBase := uint64(3 * LineBytes) // a line owned by channel 1
	dst := make([]byte, 4096)
	src := make([]byte, 1500)
	for i := range src {
		src[i] = byte(i * 7)
	}
	addrs := InterleavedCopy(iv, hostBase, dst, 10, src)
	if !bytes.Equal(dst[10:10+1500], src) {
		t.Fatal("copy did not place bytes at the DIMM-local offset")
	}
	if len(addrs) == 0 {
		t.Fatal("no host addresses generated")
	}
	ch := iv.Channel(hostBase)
	for _, a := range addrs {
		if iv.Channel(a) != ch {
			t.Fatalf("host address %#x left channel %d: interleave-aware copy is broken", a, ch)
		}
	}
	// The host addresses stride by LineBytes*Channels once line-aligned.
	for i := 2; i < len(addrs); i++ {
		if addrs[i]-addrs[i-1] != uint64(LineBytes*iv.Channels) {
			t.Fatalf("stride %d at %d, want %d", addrs[i]-addrs[i-1], i, LineBytes*iv.Channels)
		}
	}
}

func TestInterleavedCopyRoundTripProperty(t *testing.T) {
	// Property: copying in and reading back with the same mapping is the
	// identity, regardless of offset, size and channel count.
	f := func(seed []byte, off uint16, chRaw uint8) bool {
		if len(seed) == 0 {
			return true
		}
		channels := int(chRaw)%4 + 1
		iv := Interleave{Channels: channels}
		dst := make([]byte, 1<<16)
		o := int(off) % 1024
		hostBase := uint64(channels-1) * LineBytes
		InterleavedCopy(iv, hostBase, dst, o, seed)
		return bytes.Equal(dst[o:o+len(seed)], seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
