// Package memmap models the host physical address layout relevant to MCN:
// cacheline interleaving of the physical address space across memory
// channels, and the interleave-aware copy schedule that the paper's
// memcpy_to_mcn / memcpy_from_mcn functions implement (Sec. III-B, Fig. 6).
//
// With channel interleaving, successive cachelines of the host physical
// address space rotate across the host's memory controllers. A naive memcpy
// into the region where an MCN DIMM's SRAM buffer is mapped would therefore
// scatter the packet bytes across DIMMs on *different* channels. The MCN
// driver instead walks host addresses with a stride of
// lineBytes*numChannels, so every burst lands on the one channel (and DIMM)
// that holds the SRAM buffer.
package memmap

// LineBytes is the interleaving granularity: one CPU cacheline / one DDR
// burst of a x64 DIMM (8 beats by 8 bytes).
const LineBytes = 64

// Interleave describes cacheline interleaving across a number of channels.
type Interleave struct {
	Channels int
}

// Channel returns the memory channel that owns the cacheline containing
// addr.
func (iv Interleave) Channel(addr uint64) int {
	return int(addr / LineBytes % uint64(iv.Channels))
}

// ChannelOffset returns the address of addr within its channel's local
// (un-interleaved) address space.
func (iv Interleave) ChannelOffset(addr uint64) uint64 {
	line := addr / LineBytes
	localLine := line / uint64(iv.Channels)
	return localLine*LineBytes + addr%LineBytes
}

// HostAddr is the inverse of (Channel, ChannelOffset): it maps a channel's
// local address back to the host physical address.
func (iv Interleave) HostAddr(channel int, channelOff uint64) uint64 {
	localLine := channelOff / LineBytes
	line := localLine*uint64(iv.Channels) + uint64(channel)
	return line*LineBytes + channelOff%LineBytes
}

// InterleavedCopy emulates memcpy_to_mcn: it copies src into dst starting
// at dstOff, where dst is the target DIMM's *local* view of its SRAM and the
// copy must walk host addresses with the interleave stride. It returns the
// host physical addresses touched, in order, given the SRAM window's first
// host address hostBase (which must map to the DIMM's channel). The data
// movement itself is performed on the provided byte slices so tests can
// verify placement end to end.
func InterleavedCopy(iv Interleave, hostBase uint64, dst []byte, dstOff int, src []byte) []uint64 {
	if iv.Channels < 1 {
		panic("memmap: interleave with no channels")
	}
	ch := iv.Channel(hostBase)
	base := iv.ChannelOffset(hostBase)
	addrs := make([]uint64, 0, len(src)/LineBytes+1)
	for i := 0; i < len(src); {
		local := base + uint64(dstOff+i)
		host := iv.HostAddr(ch, local)
		addrs = append(addrs, host)
		// Copy up to the end of this cacheline.
		lineEnd := int(local/LineBytes+1)*LineBytes - int(local)
		n := lineEnd
		if rem := len(src) - i; n > rem {
			n = rem
		}
		copy(dst[dstOff+i:], src[i:i+n])
		i += n
	}
	return addrs
}
