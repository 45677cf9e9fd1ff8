package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/mcn-arch/mcn/internal/cluster"
	"github.com/mcn-arch/mcn/internal/core"
	"github.com/mcn-arch/mcn/internal/netstack"
	"github.com/mcn-arch/mcn/internal/node"
	"github.com/mcn-arch/mcn/internal/sim"
)

func TestSetGetDeleteOnMcnNode(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN1.Options())
	srvEp := cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}
	srv := NewServer(k, srvEp, 11211)
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}

	var failures []string
	k.Go("client", func(p *sim.Proc) {
		c, err := Dial(p, hostEp, s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		check := func(cond bool, msg string) {
			if !cond {
				failures = append(failures, msg)
			}
		}
		val := bytes.Repeat([]byte{0xAA}, 4096)
		check(c.Set(p, "alpha", val) == nil, "set failed")
		got, ok, err := c.Get(p, "alpha")
		check(err == nil && ok && bytes.Equal(got, val), "get returned wrong value")
		_, ok, err = c.Get(p, "missing")
		check(err == nil && !ok, "missing key should miss")
		ok, err = c.Delete(p, "alpha")
		check(err == nil && ok, "delete failed")
		_, ok, _ = c.Get(p, "alpha")
		check(!ok, "deleted key still present")
		c.Close(p)
	})
	k.RunUntil(sim.Time(5 * sim.Second))
	for _, f := range failures {
		t.Error(f)
	}
	if srv.Gets != 3 || srv.Sets != 1 || srv.Dels != 1 || srv.Misses != 2 {
		t.Fatalf("server stats gets=%d sets=%d dels=%d miss=%d", srv.Gets, srv.Sets, srv.Dels, srv.Misses)
	}
	if len(srv.index) != 0 || srv.Bytes() != 0 {
		t.Fatalf("store should be empty: len=%d bytes=%d", len(srv.index), srv.Bytes())
	}
	k.Shutdown()
}

func TestConcurrentClients(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 2, core.MCN3.Options())
	srvEp := cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}
	NewServer(k, srvEp, 11211)

	// Clients on the host and on the other MCN DIMM hammer the store.
	clients := []cluster.Endpoint{
		{Node: s.Host.Node, IP: s.Host.HostMcnIP()},
		{Node: s.Mcns[1].Node, IP: s.Mcns[1].IP},
	}
	okCount := 0
	for ci, ep := range clients {
		ci, ep := ci, ep
		k.Go(fmt.Sprintf("client%d", ci), func(p *sim.Proc) {
			c, err := Dial(p, ep, s.Mcns[0].IP, 11211)
			if err != nil {
				panic(err)
			}
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("c%d-k%d", ci, i)
				if err := c.Set(p, key, []byte(key)); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("c%d-k%d", ci, i)
				v, ok, err := c.Get(p, key)
				if err == nil && ok && string(v) == key {
					okCount++
				}
			}
			c.Close(p)
		})
	}
	k.RunUntil(sim.Time(10 * sim.Second))
	if okCount != 100 {
		t.Fatalf("round-tripped %d/100 keys", okCount)
	}
	k.Shutdown()
}

func TestNearMemoryBeats10GbELatency(t *testing.T) {
	// The disaggregated-cache claim: a GET served by an MCN DIMM inside
	// the server beats the same GET served across the 10GbE rack network.
	getLat := func(build func(k *sim.Kernel) (srv cluster.Endpoint, cli cluster.Endpoint)) float64 {
		k := sim.NewKernel()
		srvEp, cliEp := build(k)
		NewServer(k, srvEp, 11211)
		var med float64
		k.Go("client", func(p *sim.Proc) {
			c, err := Dial(p, cliEp, srvEp.IP, 11211)
			if err != nil {
				panic(err)
			}
			c.Set(p, "hot", bytes.Repeat([]byte{1}, 1024))
			for i := 0; i < 30; i++ {
				if _, ok, _ := c.Get(p, "hot"); !ok {
					panic("lost key")
				}
			}
			med = c.Lat.Median()
		})
		k.RunUntil(sim.Time(5 * sim.Second))
		k.Shutdown()
		return med
	}
	mcnLat := getLat(func(k *sim.Kernel) (cluster.Endpoint, cluster.Endpoint) {
		s := cluster.NewMcnServer(k, 1, core.MCN5.Options())
		return cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP},
			cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}
	})
	ethLat := getLat(func(k *sim.Kernel) (cluster.Endpoint, cluster.Endpoint) {
		c := cluster.NewEthCluster(k, 2, node.HostConfig(""))
		eps := c.Endpoints()
		return eps[1], eps[0]
	})
	if mcnLat >= ethLat {
		t.Fatalf("near-memory GET (%.0fns) should beat rack GET (%.0fns)", mcnLat, ethLat)
	}
}

func TestLargeValues(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN4.Options())
	srvEp := cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}
	NewServer(k, srvEp, 11211)
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}
	var ok bool
	k.Go("client", func(p *sim.Proc) {
		c, err := Dial(p, hostEp, s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		big := bytes.Repeat([]byte{7}, 256<<10) // larger than the SRAM ring
		if err := c.Set(p, "big", big); err != nil {
			panic(err)
		}
		got, found, err := c.Get(p, "big")
		ok = err == nil && found && bytes.Equal(got, big)
	})
	k.RunUntil(sim.Time(10 * sim.Second))
	if !ok {
		t.Fatal("256KB value did not round-trip through the SRAM rings")
	}
	k.Shutdown()
}

func TestMalformedRequests(t *testing.T) {
	k := sim.NewKernel()
	s := cluster.NewMcnServer(k, 1, core.MCN1.Options())
	srvEp := cluster.Endpoint{Node: s.Mcns[0].Node, IP: s.Mcns[0].IP}
	srv := NewServer(k, srvEp, 11211)
	hostEp := cluster.Endpoint{Node: s.Host.Node, IP: s.Host.HostMcnIP()}

	var failures []string
	k.Go("client", func(p *sim.Proc) {
		check := func(cond bool, msg string) {
			if !cond {
				failures = append(failures, msg)
			}
		}

		// An unknown opcode gets a distinct error status and the
		// connection stays usable for well-formed requests after it.
		c, err := Dial(p, hostEp, s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		raw := c.conn
		req := AppendRequest(nil, 0x7F, "key", []byte("val"))
		check(raw.Send(p, req) == nil, "send bad-op request")
		hdr := make([]byte, RespHeaderBytes)
		check(netstack.ReadFull(p, raw, hdr), "read bad-op response")
		st, n, hok := ParseRespHeader(hdr)
		check(hok && st == StatusBadOp && n == 0, "bad opcode should return StatusBadOp")
		check(c.Set(p, "alpha", []byte("beta")) == nil, "connection unusable after bad op")
		v, ok, err := c.Get(p, "alpha")
		check(err == nil && ok && string(v) == "beta", "get after bad op")
		c.Close(p)

		// The typed client preflights oversized keys/values.
		c2, err := Dial(p, hostEp, s.Mcns[0].IP, 11211)
		if err != nil {
			panic(err)
		}
		check(c2.Set(p, string(make([]byte, MaxKeyBytes+1)), nil) == ErrTooLarge,
			"oversized key should preflight ErrTooLarge")
		check(c2.Set(p, "k", make([]byte, MaxValueBytes+1)) == ErrTooLarge,
			"oversized value should preflight ErrTooLarge")

		// A wire-level oversized header (a length the server must not
		// trust) is rejected with StatusTooLarge and the connection is
		// closed without consuming the declared body.
		raw2 := c2.conn
		var evil [ReqHeaderBytes]byte
		evil[0] = OpSet
		binary.LittleEndian.PutUint16(evil[1:3], 4)
		binary.LittleEndian.PutUint32(evil[3:7], uint32(MaxValueBytes+1))
		check(raw2.Send(p, evil[:]) == nil, "send oversized header")
		hdr2 := make([]byte, RespHeaderBytes)
		check(netstack.ReadFull(p, raw2, hdr2), "read too-large response")
		st2, _, _ := ParseRespHeader(hdr2)
		check(st2 == StatusTooLarge, "oversized request should return StatusTooLarge")
		_, open := raw2.Recv(p, make([]byte, 1))
		check(!open, "server should close the connection after StatusTooLarge")
	})
	k.RunUntil(sim.Time(5 * sim.Second))
	for _, f := range failures {
		t.Error(f)
	}
	if srv.BadOps != 1 || srv.TooLarge != 1 {
		t.Fatalf("server counters badops=%d toolarge=%d", srv.BadOps, srv.TooLarge)
	}
	k.Shutdown()
}
