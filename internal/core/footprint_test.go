package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sched"
	"mptcpgo/internal/tcp"
)

// footprintSink keeps what allocatedBytesPer allocates on the heap.
var footprintSink any

// allocatedBytesPer returns what the allocator charges for one new(T): the
// size class the object lands in, malloc header included. Anything else the
// process allocates meanwhile only adds, so it is the least of a few tries.
func allocatedBytesPer[T any]() uint64 {
	const n = 1000
	keep := make([]*T, n)
	least := ^uint64(0)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = new(T)
		}
		runtime.ReadMemStats(&after)
		footprintSink = keep
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	return least
}

// TestConnectionFootprint pins what one end of a single-subflow connection
// costs: a connection's timers, controller, coupling group and the first
// backing stores of its small slices are fields of these three structs, so
// this is where a new field or a wider inline array shows. It measures what
// the allocator charges, not unsafe.Sizeof: an object over 512 B that holds
// pointers carries an 8-byte malloc header, so Connection (1392 B, its
// handler and hooks included) costs its 1408 B size class and tcp.Endpoint
// (992 B) its 1024 B one; Subflow (368 B) costs 384. The cliffs: Connection
// up to 1400 B and Endpoint up to 1016 B keep today's cost; Connection at
// 1272 B or less would drop a class, and Endpoint past 1016 B would climb
// back to 1152. The pins are upper bounds, and the figures are those of a
// 64-bit platform.
func TestConnectionFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned sizes are those of a 64-bit platform")
	}
	for _, c := range []struct {
		name        string
		size        uintptr
		got, pinned uint64
	}{
		{"Connection", unsafe.Sizeof(Connection{}), allocatedBytesPer[Connection](), 1408},
		{"Subflow", unsafe.Sizeof(Subflow{}), allocatedBytesPer[Subflow](), 384},
		{"tcp.Endpoint", unsafe.Sizeof(tcp.Endpoint{}), allocatedBytesPer[tcp.Endpoint](), 1024},
	} {
		t.Logf("%s: %d B, %d B allocated", c.name, c.size, c.got)
		if c.got > c.pinned {
			t.Errorf("a %s (%d B) costs %d B of heap, pinned at %d: size the inline arrays from a measurement (see subflowsInline) and update the pin with it",
				c.name, c.size, c.got, c.pinned)
		}
	}
}

// transferTrace is everything a pattern transfer shows from outside.
type transferTrace struct {
	received, finishedAt   int64
	clientStats, srvStats  ConnStats
	reassemblySteps        uint64
	receiverMemory         []int // sampled every 50 ms of sim-time
	client, server         *Connection
	corrupt, sawEOF, stuck bool
}

// runPatternTransfer uploads total bytes of a position-dependent pattern over
// the given paths and checks every byte on arrival. prep, when non-nil, sees
// each connection the moment it exists (before any segment) and again before
// every simulator step, so a test can rearrange a connection's internal
// storage the way an earlier layout had it.
func runPatternTransfer(t *testing.T, specs []netem.PathSpec, cfg Config, total int, prep func(*Connection)) transferTrace {
	t.Helper()
	h := newHarness(t, 11, specs)
	var tr transferTrace
	pattern := func(off int64) byte { return byte(off*131 + off>>8) }
	if prep == nil {
		prep = func(*Connection) {}
	}
	if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
		tr.server = c
		prep(c)
		buf := make([]byte, 8<<10)
		c.OnReadable = func() {
			for n := c.ReadInto(buf); n > 0; n = c.ReadInto(buf) {
				for _, b := range buf[:n] {
					if b != pattern(tr.received) {
						tr.corrupt = true
					}
					tr.received++
				}
			}
			if tr.received >= int64(total) && tr.finishedAt == 0 {
				tr.finishedAt = int64(h.net.Sim.Now())
			}
			if c.EOF() {
				tr.sawEOF = true
				c.Close()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.client = conn
	prep(conn)
	var sent int64
	chunk := make([]byte, 16<<10)
	pump := func() {
		for sent < int64(total) {
			n := min(len(chunk), total-int(sent))
			for i := range chunk[:n] {
				chunk[i] = pattern(sent + int64(i))
			}
			w := conn.Write(chunk[:n])
			if w == 0 {
				return
			}
			sent += int64(w)
		}
		conn.Close()
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump

	nextSample := 50 * time.Millisecond
	for !conn.Closed() || tr.server == nil || !tr.server.Closed() {
		if h.net.Sim.Now() > 120*time.Second || !h.net.Sim.Step() {
			tr.stuck = true
			break
		}
		prep(conn)
		if tr.server != nil {
			prep(tr.server)
			for h.net.Sim.Now() >= nextSample {
				tr.receiverMemory = append(tr.receiverMemory, tr.server.ReceiverMemory())
				nextSample += 50 * time.Millisecond
			}
		}
	}
	tr.clientStats, tr.srvStats = conn.Stats(), tr.server.Stats()
	tr.reassemblySteps = tr.server.ReassemblySteps()
	return tr
}

func (tr transferTrace) mustBeComplete(t *testing.T, total int) {
	t.Helper()
	if tr.stuck || tr.corrupt || !tr.sawEOF || tr.received != int64(total) {
		t.Fatalf("transfer: stuck=%v corrupt=%v eof=%v received %d of %d", tr.stuck, tr.corrupt, tr.sawEOF, tr.received, total)
	}
}

// mustMatch compares everything observable of two transfers.
func (tr transferTrace) mustMatch(t *testing.T, ref transferTrace) {
	t.Helper()
	if tr.received != ref.received || tr.finishedAt != ref.finishedAt {
		t.Errorf("received %d at %d ns, reference %d at %d ns", tr.received, tr.finishedAt, ref.received, ref.finishedAt)
	}
	if tr.clientStats != ref.clientStats || tr.srvStats != ref.srvStats {
		t.Errorf("ConnStats differ:\nclient %+v\n   ref %+v\nserver %+v\n   ref %+v", tr.clientStats, ref.clientStats, tr.srvStats, ref.srvStats)
	}
	if tr.reassemblySteps != ref.reassemblySteps {
		t.Errorf("ReassemblySteps %d, reference %d", tr.reassemblySteps, ref.reassemblySteps)
	}
	if !reflect.DeepEqual(tr.receiverMemory, ref.receiverMemory) {
		t.Errorf("ReceiverMemory samples differ:\n%v\nreference\n%v", tr.receiverMemory, ref.receiverMemory)
	}
}

// TestSpillPastInlineArraysChangesNothing runs a transfer that outgrows every
// inline array of a connection (four subflows, a window of hundreds of
// mappings and chunks, received mappings piling up behind losses) and
// compares it with the same transfer on connections whose slices were moved
// to roomy heap arrays up front, so that nothing there ever sits in an inline
// array or outgrows one. Every byte, counter and sample must agree: the
// arrays are a first backing store, not a limit and not a code path.
func TestSpillPastInlineArraysChangesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SendBufBytes, cfg.RecvBufBytes = 512<<10, 512<<10
	cfg.SubflowsPerInterface = 2
	const total = 1 << 20

	onHeap := func(c *Connection) {
		if cap(c.inflight) < 4096 { // first sight of c
			c.subflows = append(make([]*Subflow, 0, 64), c.subflows...)
			c.usableScratch = make([]*Subflow, 0, 64)
			c.candScratch = make([]sched.Candidate, 0, 64)
			c.usedRemote = append(make([]packet.Endpoint, 0, 64), c.usedRemote...)
			c.inflight = append(make([]*txMapping, 0, 4096), c.inflight...)
		}
		for _, s := range c.subflows { // subflows come and go; a new one has received nothing yet
			if cap(s.rxMappings) < 1024 {
				s.rxMappings = append(make([]rxMapping, 0, 1024), s.rxMappings...)
			}
		}
	}
	ref := runPatternTransfer(t, netem.WiFi3GSpec(), cfg, total, onHeap)
	ref.mustBeComplete(t, total)
	// The run under test is only watched: how long did its slices get?
	var subflows, inflight, rxMappings int
	got := runPatternTransfer(t, netem.WiFi3GSpec(), cfg, total, func(c *Connection) {
		subflows, inflight = max(subflows, len(c.subflows)), max(inflight, len(c.inflight))
		for _, s := range c.subflows {
			rxMappings = max(rxMappings, len(s.rxMappings))
		}
	})
	got.mustBeComplete(t, total)
	got.mustMatch(t, ref)
	if subflows <= subflowsInline || inflight <= inflightInline || rxMappings <= rxMappingsInline {
		t.Fatalf("the run held at most %d subflows, %d in-flight mappings and %d received mappings; the inline arrays hold %d, %d and %d, so nothing spilled",
			subflows, inflight, rxMappings, subflowsInline, inflightInline, rxMappingsInline)
	}
	if c := got.client; cap(c.inflight) <= len(c.inline.inflight) || cap(c.subflows) <= len(c.inline.subflows) {
		t.Fatalf("slices still on their inline arrays after outgrowing them: cap %d and %d", cap(c.inflight), cap(c.subflows))
	}
}

// TestReassemblyQueuesBuiltOnFirstUse: the connection-level reassembly queue
// and its per-subflow byte counts exist from the first out-of-order arrival
// on. A connection whose data arrived in order never builds them and reads as
// empty; one that reordered reports exactly what a connection that built them
// at creation reports.
func TestReassemblyQueuesBuiltOnFirstUse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SendBufBytes, cfg.RecvBufBytes = 256<<10, 256<<10

	t.Run("in order", func(t *testing.T) {
		// One clean path, and a server that reads nothing: what arrived is
		// what the receive queue holds.
		h := newHarness(t, 5, []netem.PathSpec{netem.Symmetric("p", netem.Mbps(50), 2*time.Millisecond, 1<<20, 0)})
		var srv *Connection
		if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) { srv = c }); err != nil {
			t.Fatal(err)
		}
		conn, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const total = 96 << 10
		conn.OnEstablished = func() { conn.Write(make([]byte, total)) }
		if err := h.net.Sim.RunUntil(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if srv == nil {
			t.Fatal("no connection accepted")
		}
		if srv.ReadableBytes() != total {
			t.Fatalf("server holds %d unread bytes, want %d", srv.ReadableBytes(), total)
		}
		if srv.ofo != nil || srv.ofoBySubflow != nil {
			t.Fatal("an in-order flow built its reassembly queue")
		}
		if srv.ReassemblySteps() != 0 || srv.ReceiverMemory() != total {
			t.Fatalf("ReassemblySteps %d, ReceiverMemory %d; want 0 and the %d unread bytes", srv.ReassemblySteps(), srv.ReceiverMemory(), total)
		}
		if win, ok := srv.subflows[0].AdvertiseWindow(srv.subflows[0].ep); !ok || win != cfg.RecvBufBytes-total {
			t.Fatalf("advertised window %d (%v), want %d", win, ok, cfg.RecvBufBytes-total)
		}
	})

	t.Run("reordered", func(t *testing.T) {
		const total = 1 << 20
		eager := func(c *Connection) {
			if c.ofo == nil {
				c.ofo = buffer.NewOfoQueue(c.cfg.OfoAlgorithm)
				c.ofoBySubflow = make(map[int]int)
			}
		}
		ref := runPatternTransfer(t, netem.WiFi3GSpec(), cfg, total, eager)
		ref.mustBeComplete(t, total)
		got := runPatternTransfer(t, netem.WiFi3GSpec(), cfg, total, nil)
		got.mustBeComplete(t, total)
		got.mustMatch(t, ref)
		if got.reassemblySteps == 0 || got.server.ofo == nil {
			t.Fatalf("WiFi+3G transfer never reordered (steps %d): the test exercises nothing", got.reassemblySteps)
		}
		if got.client.ofo != nil {
			t.Fatal("the sender, which received no data, built a reassembly queue")
		}
	})
}
