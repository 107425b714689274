package main

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

var coreDrivers = []driver{
	{ns: "core.conn_cycle_ns", allocs: "core.conn_cycle_allocs", allocB: "core.conn_cycle_alloc_b", ops: 2_000, run: coreConnCycle},
	{ns: "core.keygen_1k_ns", ops: 400_000, run: coreKeygen},
	{ns: "core.stream_ns_per_seg", allocs: "core.stream_allocs_per_seg", allocB: "core.stream_alloc_b_per_seg", ops: 8 * streamSegments, run: coreStream},
}

// corePair builds a client and a server joined by two fast links, with one
// MPTCP stack on each.
func corePair() (s *sim.Simulator, net *netem.Network, client, server *core.Manager) {
	s = sim.New(1)
	net = netem.Build(s, fastPath("drv-a"), fastPath("drv-b"))
	return s, net, core.NewManager(net.Client), core.NewManager(net.Server)
}

// coreConnCycle is one short MPTCP connection from start to finish:
// MP_CAPABLE handshake with key and token generation, the MP_JOIN of the
// second subflow, one byte of data, DATA_FIN and subflow close. One
// operation is one connection; its allocations are what a short flow costs.
func coreConnCycle(n int) (int, error) {
	s, net, client, server := corePair()
	cfg := core.DefaultConfig()
	served := 0
	_, err := server.Listen(80, cfg, func(c *core.Connection) {
		done := false
		c.OnReadable = func() {
			for len(c.Read(4096)) > 0 {
			}
			if c.EOF() && !done {
				done = true
				c.Close()
				served++
			}
		}
	})
	if err != nil {
		return 0, err
	}
	remote := packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}
	joined := 0
	for i := 0; i < n; i++ {
		c, err := client.Dial(net.Client.Interfaces()[0], remote, cfg)
		if err != nil {
			return 0, err
		}
		// The byte goes out after the stack's 50 ms add-subflow delay, so the
		// cycle always includes the join.
		s.Schedule(60*time.Millisecond, func() {
			if len(c.Subflows()) == 2 {
				joined++
			}
			c.Write([]byte{1})
			c.Close()
		})
		if err := s.RunFor(80 * time.Millisecond); err != nil {
			return 0, err
		}
	}
	// The last connections' close handshakes trail their iteration.
	if err := s.RunFor(5 * time.Second); err != nil {
		return 0, err
	}
	if served != n || joined != n {
		return 0, fmt.Errorf("%d of %d connections served, %d joined a second subflow", served, n, joined)
	}
	return n, nil
}

// coreKeygen draws a connection key whose token is unique among 1000
// established connections (Figure 10's cost).
func coreKeygen(n int) (int, error) {
	rng := sim.NewRNG(7)
	table := core.NewTokenTable()
	for i := 0; i < 1000; i++ {
		_, token := table.GenerateUniqueKey(rng)
		table.Insert(token, nil)
	}
	for i := 0; i < n; i++ {
		table.GenerateUniqueKey(rng)
	}
	return n, nil
}

// coreStream sends n full segments' worth of bytes over one two-subflow
// connection and reports per segment sent: the connection-level send queue,
// the scheduler, DSS mapping and checksum, both subflows' TCP, reassembly
// and the shared receive buffer.
func coreStream(n int) (int, error) {
	s, net, client, server := corePair()
	cfg := core.DefaultConfig()
	total := n * 1460
	received := 0
	buf := make([]byte, 64<<10)
	_, err := server.Listen(80, cfg, func(c *core.Connection) {
		c.OnReadable = func() {
			for {
				r := c.ReadInto(buf)
				if r == 0 {
					return
				}
				received += r
			}
		}
	})
	if err != nil {
		return 0, err
	}
	c, err := client.Dial(net.Client.Interfaces()[0], packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		return 0, err
	}
	chunk := make([]byte, 32<<10)
	sent := 0
	pump := func() {
		for sent < total {
			w := c.Write(chunk[:min(len(chunk), total-sent)])
			if w == 0 {
				return
			}
			sent += w
		}
	}
	c.OnEstablished = pump
	c.OnWritable = pump
	for received < total {
		if !s.Step() {
			return 0, fmt.Errorf("stream stalled at %d of %d bytes", received, total)
		}
	}
	if len(c.Subflows()) != 2 {
		return 0, fmt.Errorf("stream ran on %d subflows, want 2", len(c.Subflows()))
	}
	segs := 0
	for _, sf := range c.Subflows() {
		segs += int(sf.Endpoint().Stats().SegmentsSent)
	}
	return segs, nil
}
