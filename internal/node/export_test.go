package node

import "github.com/mcn-arch/mcn/internal/sim"

// MemMove is the process form of a bulk copy's memory traffic, a read and
// then a write on the next channel in rotation: the reference the copy
// chain is checked against.
func (n *Node) MemMove(p *sim.Proc, bytes int) {
	ch := n.Channels[n.copyIdx%len(n.Channels)]
	n.copyIdx++
	ch.Read(p, copySrc, bytes)
	ch.Write(p, copyDst, bytes)
}
