//go:build poolcheck

package core

import (
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/tcp"
)

// TestPoolcheckPoisonsRecycledTriplet: under poolcheck a released
// connection's structs lie poisoned on the free lists, so a stale reference
// panics at the entry points instead of acting for the struct's next user.
func TestPoolcheckPoisonsRecycledTriplet(t *testing.T) {
	h := newHarness(t, 3, []netem.PathSpec{netem.Symmetric("p", netem.Mbps(100), 2*time.Millisecond, 1<<20, 0)})
	buf := make([]byte, 4096)
	var ends []*Connection
	if _, err := h.srvMgr.Listen(80, DefaultConfig(), func(c *Connection) {
		ends = append(ends, c)
		c.Release()
		c.OnReadable = func() {
			for c.ReadInto(buf) > 0 {
			}
			if !c.WriteClosed() && c.Stats().BytesDelivered >= 1000 {
				c.Write(make([]byte, 1000))
				c.Close()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	dial := func() *Connection {
		c, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
		return c
	}
	cli := dial()
	ends = append(ends, cli)
	cli.OnEstablished = func() { cli.Write(make([]byte, 1000)) }
	cli.OnReadable = func() {
		for cli.ReadInto(buf) > 0 {
		}
		if cli.EOF() {
			cli.Close()
		}
	}
	if err := h.net.Sim.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 || !ends[0].closed || !ends[1].closed {
		t.Fatal("the flow did not finish at both ends")
	}
	// Both ends were retired; the next dial recycles both and reuses one
	// end's structs.
	eps := [2]*tcp.Endpoint{ends[0].subflows[0].ep, ends[1].subflows[0].ep}
	next := dial()
	stale, staleEP := ends[0], eps[0]
	if stale == next {
		stale, staleEP = ends[1], eps[1]
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a recycled connection did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Write", func() { stale.Write([]byte{1}) })
	mustPanic("ReadInto", func() { stale.ReadInto(buf) })
	mustPanic("HandleSegment", func() { staleEP.HandleSegment(nil, packet.NewSegment()) })
	// The one-shot it left scheduled is stale, not an error.
	fireAdditionalSubflows(stale, nil)
}
