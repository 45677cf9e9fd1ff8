// fastpath demonstrates the paper's Sec. VII future work: a transport
// native to the memory channel (mcnt: credit-based flow control and
// go-back-N over the SRAM rings) instead of TCP/IP over it. The comparison
// prints TCP vs mcnt bandwidth and small-message latency, plus the
// measured TCP ACK overhead the section calls out.
package main

import (
	"fmt"

	"github.com/mcn-arch/mcn"
)

func main() {
	fmt.Println("running the Sec. VII comparison (TCP over MCN vs the channel-native transport)...")
	fmt.Println()
	fmt.Print(mcn.Discussion())

	// A taste of the API: a request/response service over the fast path.
	// The application code is ordinary DialConn/ListenConn; putting the
	// endpoints on the mcnt fabric is the only change from TCP.
	k := mcn.NewKernel()
	s := mcn.NewMcnServer(k, 1, mcn.MCN1.Options())
	fab := mcn.AttachMcnt(k, s.Host, mcn.DefaultMcntParams())
	host, dimm := s.Endpoints()[0], s.McnEndpoints()[0]
	host.Transport, dimm.Transport = fab.TransportFor(host.Node), fab.TransportFor(dimm.Node)
	k.Go("near-memory-service", func(p *mcn.Proc) {
		l, err := dimm.ListenConn(7000)
		if err != nil {
			panic(err)
		}
		c, err := l.AcceptConn(p)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 256)
		for {
			n, ok := c.Recv(p, buf)
			if !ok {
				return
			}
			c.Send(p, append([]byte("echo:"), buf[:n]...))
		}
	})
	var reply []byte
	k.Go("host-app", func(p *mcn.Proc) {
		c, err := host.DialConn(p, dimm.IP, 7000)
		if err != nil {
			panic(err)
		}
		c.Send(p, []byte("lookup key=42"))
		buf := make([]byte, 256)
		n, _ := c.Recv(p, buf)
		reply = buf[:n]
	})
	k.RunFor(mcn.Second)
	fmt.Printf("\nfast-path RPC reply: %q\n", reply)
}
