package core

import (
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/tcp"
)

// recycleRun is what TestRecycledConnectionIsFresh observes of one run.
type recycleRun struct {
	first, second *Connection
	firstSubflow  *Subflow
	firstEndpoint *tcp.Endpoint
	// estFirst and closedFirst are when the first connection was established
	// and finished; estSecond when the second was established.
	estFirst, closedFirst, estSecond time.Duration
	// openedBefore and openedAt are the second connection's SubflowsOpened
	// just before and just after addSubflowDelay past its own handshake.
	openedBefore, openedAt int
	events                 uint64
}

// runRecycle dials a short client connection over two paths, which finishes
// inside addSubflowDelay, and a millisecond after it has finished a second
// one, which lives past its own additional subflows. The client releases both
// when release is set; the server never releases its ends, so the client's
// structs are the only ones the free lists hold.
func runRecycle(t *testing.T, release bool) recycleRun {
	t.Helper()
	h := newHarness(t, 3, []netem.PathSpec{
		netem.Symmetric("p0", netem.Mbps(100), 2*time.Millisecond, 1<<20, 0),
		netem.Symmetric("p1", netem.Mbps(100), 2*time.Millisecond, 1<<20, 0),
	})
	s := h.net.Sim
	// Without ADD_ADDR the only one-shot a client arms is the one at
	// addSubflowDelay.
	cfg := DefaultConfig()
	cfg.AdvertiseAddresses = false
	buf := make([]byte, 4096)
	drain := func(c *Connection) {
		for c.ReadInto(buf) > 0 {
		}
	}
	// The server answers a 1000-byte request with 1000 bytes and closes; the
	// client closes at EOF.
	if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
		c.OnReadable = func() {
			drain(c)
			if !c.WriteClosed() && c.Stats().BytesDelivered >= 1000 {
				c.Write(make([]byte, 1000))
				c.Close()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	var r recycleRun
	dial := func() *Connection {
		c, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.OnReadable = func() {
			drain(c)
			if c.EOF() {
				c.Close()
			}
		}
		if release {
			c.Release()
		}
		return c
	}
	r.first = dial()
	r.firstSubflow = r.first.Subflows()[0]
	r.firstEndpoint = r.firstSubflow.Endpoint()
	r.first.OnEstablished = func() {
		r.estFirst = s.Now()
		r.first.Write(make([]byte, 1000))
	}
	r.first.OnClosed = func(err error) {
		if err != nil {
			t.Errorf("first connection closed with %v", err)
		}
		r.closedFirst = s.Now()
		s.Schedule(time.Millisecond, func() {
			r.second = dial()
			r.second.OnEstablished = func() {
				r.estSecond = s.Now()
				s.Schedule(addSubflowDelay-time.Microsecond, func() { r.openedBefore = r.second.Stats().SubflowsOpened })
				s.Schedule(addSubflowDelay+time.Microsecond, func() { r.openedAt = r.second.Stats().SubflowsOpened })
			}
		})
	}
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	r.events = s.Processed
	return r
}

// TestRecycledConnectionIsFresh: a released connection that finishes before
// its additional subflows were due hands its Connection, Subflow and Endpoint
// to the next dial on the simulator, and the one-shot it left scheduled does
// nothing to that connection — which opens its additional subflows
// addSubflowDelay after its own handshake, not after the first one's — while
// it still runs as an event: the run processes exactly the events of the same
// run without Release.
func TestRecycledConnectionIsFresh(t *testing.T) {
	kept, recycled := runRecycle(t, false), runRecycle(t, true)
	r := recycled
	if r.second == nil || r.estSecond == 0 {
		t.Fatal("the second connection never established")
	}
	if r.closedFirst == 0 || r.closedFirst >= r.estFirst+addSubflowDelay {
		t.Fatalf("first connection established at %v finished at %v, want within %v", r.estFirst, r.closedFirst, addSubflowDelay)
	}
	if r.estSecond >= r.estFirst+addSubflowDelay {
		t.Fatalf("second connection established at %v, after the first one's one-shot (%v)", r.estSecond, r.estFirst+addSubflowDelay)
	}
	if r.second != r.first {
		t.Error("the second dial did not reuse the released Connection")
	}
	if sf := r.second.Subflows()[0]; sf != r.firstSubflow || sf.Endpoint() != r.firstEndpoint {
		t.Error("the second dial did not reuse the released Subflow and Endpoint")
	}
	if kept.second == kept.first {
		t.Error("a connection nobody released was reused")
	}
	for _, run := range []recycleRun{kept, recycled} {
		if run.openedBefore != 1 || run.openedAt != 2 {
			t.Errorf("second connection had %d subflows just before and %d just after %v past its handshake; want 1 and 2",
				run.openedBefore, run.openedAt, addSubflowDelay)
		}
	}
	if got := r.second.Stats().SubflowsOpened; got != 2 {
		t.Errorf("second connection opened %d subflows, want 2", got)
	}
	if recycled.events != kept.events {
		t.Errorf("recycling ran %d events, the same run without Release %d", recycled.events, kept.events)
	}
}

// TestRecycleReturnsQueuedData: a released connection reset while data sits
// out of order in its reassembly queues, the connection's and a subflow's,
// gives those buffers back to the simulator's pool — the subflow's when its
// endpoint closes, the connection's when it is recycled — not to the garbage
// collector: once both ends are recycled, as many pool buffers are
// outstanding as before the transfer.
func TestRecycleReturnsQueuedData(t *testing.T) {
	h := newHarness(t, 7, netem.WiFi3GSpec())
	s := h.net.Sim
	outstanding := func() int64 {
		sim.Local[pool.Local](s).Flush()
		return pool.Stats().Outstanding()
	}
	start := outstanding()
	cfg := DefaultConfig()
	cfg.SendBufBytes, cfg.RecvBufBytes = 256<<10, 256<<10
	var srv *Connection
	buf := make([]byte, 64<<10)
	if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
		srv = c
		c.Release()
		c.OnReadable = func() {
			for c.ReadInto(buf) > 0 {
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli.Release()
	chunk := make([]byte, 16<<10)
	pump := func() {
		for cli.Write(chunk) > 0 {
		}
	}
	cli.OnEstablished, cli.OnWritable = pump, pump
	// Reset the transfer the first time both levels hold data out of order.
	var connOfo, subflowOfo int
	var watch func()
	watch = func() {
		if srv != nil && srv.ofo != nil {
			connOfo, subflowOfo = srv.ofo.Bytes(), 0
			for _, sf := range srv.subflows {
				subflowOfo += sf.ep.ReceiveQueuedBytes()
			}
			if connOfo > 0 && subflowOfo > 0 {
				srv.Abort()
				return
			}
		}
		s.Schedule(time.Millisecond, watch)
	}
	s.Schedule(time.Millisecond, watch)
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if connOfo == 0 || subflowOfo == 0 {
		t.Fatal("the server never held data out of order at both levels: the test exercises nothing")
	}
	if !srv.closed || !cli.closed {
		t.Fatal("the reset did not finish both ends")
	}
	// Both ends are retired; the next event to build a connection recycles
	// them.
	s.Schedule(0, func() { sim.Local[freeLists](s).reap(s) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if f := sim.Local[freeLists](s); len(f.retired) != 0 || srv.sim != nil || cli.sim != nil {
		t.Fatal("the connections were not recycled")
	}
	if got := outstanding(); got != start {
		t.Fatalf("%d pool buffers outstanding after both ends were recycled (%d B out of order in the connection, %d B in its subflows at the reset)",
			got-start, connOfo, subflowOfo)
	}
}
