package core

import (
	"runtime"
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

// eventCounter is a client Handler: it writes a 1000-byte request once
// established, drains what arrives, closes at EOF and counts the events the
// test checks.
type eventCounter struct {
	c                             *Connection
	established, readable, closed int
}

func (h *eventCounter) Established() {
	h.established++
	h.c.Write(make([]byte, 1000))
}

func (h *eventCounter) Readable() {
	h.readable++
	var buf [4096]byte
	for h.c.ReadInto(buf[:]) > 0 {
	}
	if h.c.EOF() {
		h.c.Close()
	}
}

func (*eventCounter) Writable() {}

func (h *eventCounter) Closed(error) { h.closed++ }

// mallocsOf returns how many heap objects f allocates.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSetHandlerOnRecycledConnection: a connection's events reach the
// Handler SetHandler installed. Once the released connection is recycled it
// carries no handler and none of the four hooks, although its handler never
// cleared itself; and the next dial, which gets the same struct, installs
// its handler without allocating, because the hooks are bound once per
// struct, not once per user — a struct that has never had a handler binds
// them on its first SetHandler.
func TestSetHandlerOnRecycledConnection(t *testing.T) {
	h := newHarness(t, 3, []netem.PathSpec{
		netem.Symmetric("p0", netem.Mbps(100), 2*time.Millisecond, 1<<20, 0),
	})
	s := h.net.Sim
	cfg := DefaultConfig()
	buf := make([]byte, 4096)
	if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
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
		c, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	run := func(c *Connection) *eventCounter {
		ev := &eventCounter{c: c}
		if n := mallocsOf(func() { c.SetHandler(ev) }); n != 0 {
			t.Errorf("SetHandler on a struct whose hooks are bound allocated %d objects; want 0", n)
		}
		c.Release()
		if err := s.RunUntil(s.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
		if ev.established != 1 || ev.readable == 0 || ev.closed != 1 {
			t.Fatalf("handler saw %d Established, %d Readable, %d Closed; want 1, some, 1", ev.established, ev.readable, ev.closed)
		}
		Reap(s)
		if c.handler != nil || c.OnEstablished != nil || c.OnReadable != nil || c.OnWritable != nil || c.OnClosed != nil {
			t.Fatal("the recycled connection still carries its handler or its hooks")
		}
		if c.hooks.closed == nil {
			t.Fatal("recycling dropped the bound hooks")
		}
		return ev
	}

	first := dial()
	if n := mallocsOf(func() { first.SetHandler(&eventCounter{}) }); n == 0 {
		t.Fatal("the first SetHandler on a new struct bound nothing: the measurement sees no allocation")
	}
	first.SetHandler(nil)
	if first.handler != nil || first.OnEstablished != nil || first.OnReadable != nil || first.OnWritable != nil || first.OnClosed != nil {
		t.Fatal("SetHandler(nil) left the handler or a hook installed")
	}
	ev1 := run(first)
	second := dial()
	if second != first {
		t.Fatal("the second dial did not reuse the recycled Connection")
	}
	run(second)
	if ev1.established != 1 || ev1.closed != 1 {
		t.Fatalf("the second connection's events reached the first handler: %+v", *ev1)
	}
}

// refusedTuple handles nothing: it only takes a four-tuple on a host.
type refusedTuple struct{}

func (refusedTuple) HandleSegment(*netem.Interface, *packet.Segment) {}

// TestDialRefusedTupleLeavesNothing: when the host refuses the four-tuple a
// dial draws (its ephemeral ports wrapped onto a live connection), Dial
// fails and leaves nothing behind: no token in the host's table, no tracked
// connection, and the half-built Connection and Subflow back on the free
// lists, where the next dial takes them without allocating.
func TestDialRefusedTupleLeavesNothing(t *testing.T) {
	h := newHarness(t, 3, []netem.PathSpec{
		netem.Symmetric("p0", netem.Mbps(100), 2*time.Millisecond, 1<<20, 0),
	})
	iface := h.net.Client.Interfaces()[0]
	remote := packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}
	taken := packet.Endpoint{Addr: iface.Addr(), Port: h.net.Client.AllocatePort() + 1}
	if err := h.net.Client.Register(taken, remote, refusedTuple{}); err != nil {
		t.Fatal(err)
	}
	if c, err := h.cliMgr.Dial(iface, remote, DefaultConfig()); err == nil {
		t.Fatalf("Dial onto a taken four-tuple returned %v and no error", c)
	}
	if n, live := h.cliMgr.tokens.Len(), len(h.cliMgr.conns); n != 0 || live != 0 {
		t.Fatalf("after the refused dial the host holds %d tokens and tracks %d connections; want 0 and 0", n, live)
	}
	free := sim.Local[freeLists](h.net.Sim)
	if n := mallocsOf(func() { free.conns.Put(free.conns.Get()) }); n != 0 {
		t.Error("the refused dial's Connection is not on the free list")
	}
	if n := mallocsOf(func() { free.subflows.Put(free.subflows.Get()) }); n != 0 {
		t.Error("the refused dial's Subflow is not on the free list")
	}
	if _, err := h.cliMgr.Dial(iface, remote, DefaultConfig()); err != nil {
		t.Fatalf("the next dial, on the next port: %v", err)
	}
	if n := h.cliMgr.tokens.Len(); n != 1 {
		t.Fatalf("after one dial the host holds %d tokens; want 1", n)
	}
}
