package core

import (
	"runtime"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
)

// harness bundles a built network with MPTCP managers on both hosts.
type harness struct {
	net     *netem.Network
	cliMgr  *Manager
	srvMgr  *Manager
	t       *testing.T
	serverC *Connection
	clientC *Connection
}

func newHarness(t *testing.T, seed uint64, specs []netem.PathSpec) *harness {
	t.Helper()
	s := sim.New(seed)
	n := netem.Build(s, specs...)
	return &harness{
		net:    n,
		cliMgr: NewManager(n.Client),
		srvMgr: NewManager(n.Server),
		t:      t,
	}
}

// transferResult summarises a bulk transfer.
type transferResult struct {
	received    int
	finishedAt  time.Duration
	markAt      time.Duration
	clientConn  *Connection
	serverConn  *Connection
	sawEOF      bool
	clientError error
}

// runBulkTransfer sends total bytes client->server using the given configs
// and runs the simulation until deadline.
func (h *harness) runBulkTransfer(clientCfg, serverCfg Config, total int, deadline time.Duration) transferResult {
	return h.runBulkTransferMarked(clientCfg, serverCfg, total, deadline, 0)
}

// runBulkTransferMarked additionally records the time at which markBytes had
// been received, so tests can compute steady-state rates that exclude the
// slow-start transient.
func (h *harness) runBulkTransferMarked(clientCfg, serverCfg Config, total int, deadline time.Duration, markBytes int) transferResult {
	h.t.Helper()
	res := transferResult{}

	_, err := h.srvMgr.Listen(80, serverCfg, func(c *Connection) {
		res.serverConn = c
		h.serverC = c
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				res.received += len(data)
			}
			if markBytes > 0 && res.received >= markBytes && res.markAt == 0 {
				res.markAt = h.net.Sim.Now()
			}
			if res.received >= total && res.finishedAt == 0 {
				res.finishedAt = h.net.Sim.Now()
			}
			if c.EOF() {
				res.sawEOF = true
				c.Close()
			}
		}
	})
	if err != nil {
		h.t.Fatalf("listen: %v", err)
	}

	conn, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0],
		packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, clientCfg)
	if err != nil {
		h.t.Fatalf("dial: %v", err)
	}
	res.clientConn = conn
	h.clientC = conn

	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	sent := 0
	pump := func() {
		for sent < total {
			n := minInt(len(payload), total-sent)
			w := conn.Write(payload[:n])
			if w == 0 {
				return
			}
			sent += w
		}
		if sent >= total {
			conn.Close()
		}
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump
	conn.OnClosed = func(err error) { res.clientError = err }

	if err := h.net.Sim.RunUntil(deadline); err != nil {
		h.t.Fatalf("sim: %v", err)
	}
	return res
}

func wifi3GConfig(total int) (Config, Config) {
	cli := DefaultConfig()
	cli.SendBufBytes = 512 << 10
	cli.RecvBufBytes = 512 << 10
	srv := cli
	return cli, srv
}

func TestMPTCPNegotiationAndTransferTwoPaths(t *testing.T) {
	h := newHarness(t, 1, netem.WiFi3GSpec())
	cli, srv := wifi3GConfig(0)
	total := 2 << 20
	res := h.runBulkTransfer(cli, srv, total, 60*time.Second)

	if res.received < total {
		t.Fatalf("received %d of %d bytes", res.received, total)
	}
	if !res.clientConn.MPTCPActive() {
		t.Fatal("client did not negotiate MPTCP")
	}
	if res.serverConn == nil || !res.serverConn.MPTCPActive() {
		t.Fatal("server did not negotiate MPTCP")
	}
	if got := res.clientConn.Stats().SubflowsOpened; got < 2 {
		t.Fatalf("client opened %d subflows, want at least 2", got)
	}
}

func TestMPTCPUsesBothPaths(t *testing.T) {
	// Over WiFi (8 Mbps) + 3G (2 Mbps), MPTCP with large buffers should at
	// least match what TCP over the best single path (8 Mbps WiFi) achieves
	// once past the slow-start / penalization transient, and must never
	// exceed the physical aggregate.
	h := newHarness(t, 2, netem.WiFi3GSpec())
	cli := DefaultConfig()
	cli.SendBufBytes = 1 << 20
	cli.RecvBufBytes = 1 << 20
	srv := cli
	total := 24 << 20
	res := h.runBulkTransferMarked(cli, srv, total, 120*time.Second, total/4)
	if res.received < total {
		t.Fatalf("received %d of %d bytes", res.received, total)
	}
	if res.finishedAt == 0 || res.markAt == 0 {
		t.Fatal("transfer did not complete")
	}
	// Steady-state rate over the last three quarters of the transfer.
	steadyBytes := float64(total - total/4)
	steadyRate := steadyBytes * 8 / (res.finishedAt - res.markAt).Seconds() / 1e6
	if steadyRate < 7.8 {
		t.Fatalf("MPTCP steady-state throughput %.2f Mbps is below TCP on the best path (8 Mbps)", steadyRate)
	}
	if steadyRate > 10.5 {
		t.Fatalf("MPTCP steady-state throughput %.2f Mbps exceeds the physical aggregate (10 Mbps)", steadyRate)
	}
}

func TestGracefulCloseMPTCP(t *testing.T) {
	h := newHarness(t, 3, netem.WiFi3GSpec())
	cli, srv := wifi3GConfig(0)
	total := 256 << 10
	res := h.runBulkTransfer(cli, srv, total, 60*time.Second)
	if res.received < total {
		t.Fatalf("received %d of %d bytes", res.received, total)
	}
	if !res.sawEOF {
		t.Fatal("server never observed EOF (DATA_FIN)")
	}
	if !res.clientConn.Closed() {
		t.Fatalf("client connection not closed (err=%v)", res.clientConn.Err())
	}
	if res.clientConn.Err() != nil {
		t.Fatalf("client closed with error: %v", res.clientConn.Err())
	}
	if res.serverConn == nil || !res.serverConn.Closed() {
		t.Fatal("server connection not closed")
	}
}

func TestFallbackWhenSYNOptionStripped(t *testing.T) {
	h := newHarness(t, 4, netem.WiFi3GSpec())
	// Strip MPTCP options from SYNs on the primary path.
	h.net.Path(0).AddBox(&stripBox{synOnly: true})

	cli, srv := wifi3GConfig(0)
	total := 256 << 10
	res := h.runBulkTransfer(cli, srv, total, 60*time.Second)
	if res.received < total {
		t.Fatalf("received %d of %d bytes after fallback", res.received, total)
	}
	if res.clientConn.MPTCPActive() {
		t.Fatal("client should have fallen back to regular TCP")
	}
	if res.serverConn != nil && res.serverConn.MPTCPActive() {
		t.Fatal("server should not consider MPTCP active")
	}
}

func TestFallbackWhenDataOptionsStripped(t *testing.T) {
	// One path only, so no second subflow can carry the transfer instead.
	h := newHarness(t, 5, netem.WiFi3GSpec()[:1])
	// Strip MPTCP options from every non-SYN segment: MPTCP negotiates on
	// the handshake but must drop to regular TCP when the first data packet
	// arrives without options (§3.1).
	h.net.Path(0).AddBox(&stripBox{synOnly: false, skipSYN: true})
	cli, srv := wifi3GConfig(0)
	total := 128 << 10
	res := h.runBulkTransfer(cli, srv, total, 120*time.Second)
	if res.received < total {
		t.Fatalf("received %d of %d bytes after mid-stream fallback", res.received, total)
	}
	if res.serverConn == nil || !res.serverConn.Fallback() {
		t.Fatal("server should have fallen back to regular TCP")
	}
}

// stripBox removes MPTCP options, optionally only from SYNs or only from
// non-SYN segments.
type stripBox struct {
	synOnly bool
	skipSYN bool
	removed int
}

func (b *stripBox) Name() string { return "test-strip" }

func (b *stripBox) Process(_ netem.BoxContext, _ netem.Direction, seg *packet.Segment) []*packet.Segment {
	isSYN := seg.Flags.Has(packet.FlagSYN)
	if b.synOnly && !isSYN {
		return []*packet.Segment{seg}
	}
	if b.skipSYN && isSYN {
		return []*packet.Segment{seg}
	}
	b.removed += seg.RemoveOptions(func(o packet.Option) bool { return o.Kind() == packet.OptMPTCP })
	return []*packet.Segment{seg}
}

// TestFinishReleasesSendQueues aborts an MPTCP sender in the middle of a
// transfer. The connection-level queue (bytes not yet DATA_ACKed) and the
// subflow queue (bytes not yet subflow-ACKed) both hold blocks at that point;
// finish and the subflow teardown must hand them back, and the receiver's
// queue returns its own as it is read, so once the network has drained no
// pool buffer is outstanding — none leaked, none put back twice.
func TestFinishReleasesSendQueues(t *testing.T) {
	// One path with a queue deep enough never to drop: nothing is parked in
	// a reassembly queue when the reset arrives (an abandoned receive-side
	// queue leaves its buffers to the garbage collector by design), so the
	// send side is all that can be left holding blocks.
	h := newHarness(t, 5, []netem.PathSpec{netem.Symmetric("p", netem.Mbps(10), 5*time.Millisecond, 1<<20, 0)})
	// The shared counters cover the simulator's front once it is flushed.
	outstanding := func() int64 {
		sim.Local[pool.Local](h.net.Sim).Flush()
		return pool.Stats().Outstanding()
	}
	start := outstanding()
	cfg := DefaultConfig()
	cfg.SendBufBytes = 512 << 10
	cfg.RecvBufBytes = 512 << 10
	const total = 1 << 20
	senderMemory := 0
	h.net.Sim.Schedule(200*time.Millisecond, func() {
		senderMemory = h.clientC.SenderMemory()
		if held := outstanding() - start; held < int64(senderMemory/(16<<10)) {
			t.Errorf("%d bytes queued but only %d pool buffers outstanding", senderMemory, held)
		}
		h.clientC.Abort()
	})
	res := h.runBulkTransfer(cfg, cfg, total, 10*time.Second)
	if senderMemory < 64<<10 || res.received == 0 || res.received >= total {
		t.Fatalf("abort was not mid-transfer: %d bytes in the send queue at abort, %d of %d received", senderMemory, res.received, total)
	}
	if !res.clientConn.Closed() || res.clientConn.SenderMemory() != 0 {
		t.Fatalf("client closed=%v with %d bytes still queued", res.clientConn.Closed(), res.clientConn.SenderMemory())
	}
	if got := outstanding(); got != start {
		t.Fatalf("%d pool buffers outstanding after the aborted transfer drained", got-start)
	}
}

// TestServerMemoryFlatInCompletedConnections is the regression guard for the
// listeners' accept logs: a server replica must not retain anything per
// finished connection. Sequential 16 KiB flows are dialled, drained and closed
// against one listener; the live heap after 4,000 of them has to match the
// live heap after 400.
func TestServerMemoryFlatInCompletedConnections(t *testing.T) {
	h := newHarness(t, 9, []netem.PathSpec{netem.Symmetric("p", netem.Mbps(100), time.Millisecond, 1<<20, 0)})
	cfg := DefaultConfig()
	const flowBytes = 16 << 10
	received := 0
	if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
		c.OnReadable = func() {
			for data := c.Read(64 << 10); len(data) > 0; data = c.Read(64 << 10) {
				received += len(data)
			}
			if c.EOF() {
				c.Close()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, flowBytes)
	remaining := 0
	var dial func()
	dial = func() {
		if remaining == 0 {
			return
		}
		remaining--
		conn, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cfg)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.OnEstablished = func() {
			if w := conn.Write(payload); w != flowBytes {
				t.Fatalf("short write: %d", w)
			}
			conn.Close()
		}
		conn.OnClosed = func(error) { h.net.Sim.Schedule(0, dial) }
	}
	liveHeapAfter := func(flows int) uint64 {
		remaining = flows
		dial()
		if err := h.net.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	early := liveHeapAfter(400)
	late := liveHeapAfter(3600)
	if received != 4000*flowBytes {
		t.Fatalf("received %d bytes, want %d", received, 4000*flowBytes)
	}
	if n := len(h.srvMgr.Connections()) + len(h.cliMgr.Connections()); n != 0 {
		t.Fatalf("%d connections still tracked after every flow closed", n)
	}
	if growth := int64(late) - int64(early); growth > 256<<10 {
		t.Fatalf("live heap grew %d KiB between 400 and 4000 completed flows (%d -> %d bytes)", growth>>10, early, late)
	}
}

// TestSendBufferSpaceIsWhatWriteAccepts pins the accessor generators size
// their next chunk by: in every state, with and without Mechanism 3, it
// equals what Write then takes from a slice larger than any buffer.
func TestSendBufferSpaceIsWhatWriteAccepts(t *testing.T) {
	oversized := make([]byte, 1<<20)
	for _, autotune := range []bool{true, false} {
		for _, fallback := range []bool{false, true} {
			h := newHarness(t, 6, netem.WiFi3GSpec())
			if fallback {
				h.net.Path(0).AddBox(&stripBox{synOnly: true})
			}
			cfg := DefaultConfig()
			cfg.AutoTuneBuffers = autotune
			var accepted *Connection
			if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
				accepted = c
				c.OnReadable = func() {
					for len(c.Read(64<<10)) > 0 {
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
				h.net.Sim.RunFor(time.Second)
				if !c.Established() || c.Fallback() != fallback {
					t.Fatalf("autotune=%v: established=%v fallback=%v, want fallback=%v", autotune, c.Established(), c.Fallback(), fallback)
				}
				return c
			}
			check := func(c *Connection, state string, wantZero bool) {
				t.Helper()
				space := c.SendBufferSpace()
				took := c.Write(oversized)
				if space != took || (space == 0) != wantZero {
					t.Fatalf("autotune=%v fallback=%v, %s: SendBufferSpace()=%d, Write took %d (want zero: %v)",
						autotune, fallback, state, space, took, wantZero)
				}
			}

			c := dial()
			check(c, "empty buffer", false)
			check(c, "full buffer", true)
			h.net.Sim.RunFor(200 * time.Millisecond) // some of it is acknowledged
			if c.SenderMemory() == 0 {
				t.Fatal("send buffer drained completely; the partly-full case needs bytes in it")
			}
			check(c, "partly full buffer", false)
			h.net.Sim.RunFor(200 * time.Millisecond)
			c.Close()
			check(c, "after Close", true)

			c = dial()
			c.Write(oversized[:1000])
			check(c, "1000 bytes queued", false)
			accepted.Abort() // the peer resets every subflow
			h.net.Sim.RunFor(time.Second)
			if c.Err() == nil {
				t.Fatal("connection reset by the peer reports no error")
			}
			check(c, "after an error", true)
		}
	}
}

// sampleClient runs f on the client connection every interval of sim-time
// from the moment it exists until it closes.
func (h *harness) sampleClient(interval time.Duration, f func(c *Connection)) {
	var tick func()
	tick = func() {
		if c := h.clientC; c != nil {
			if c.Closed() {
				return
			}
			f(c)
		}
		h.net.Sim.Schedule(interval, tick)
	}
	h.net.Sim.Schedule(0, tick)
}

// TestSubflowsSendFromConnectionQueue: every subflow queues and retransmits
// from its connection's send queue, so a subflow endpoint has no queue, and
// no block, of its own. On the bulk shape — 1 Gbps beside a 100 Mbps path the
// sender penalises — the slow subflow keeps chunks unacknowledged far below
// the DATA_ACK for most of the run. They pin only their own blocks: at every
// sample the queue holds no more blocks than the copy-per-subflow layout
// would (the unacked bytes' blocks plus each subflow's queued bytes').
func TestSubflowsSendFromConnectionQueue(t *testing.T) {
	h := newHarness(t, 1, []netem.PathSpec{
		netem.Symmetric("1g", netem.Mbps(1000), 500*time.Microsecond, 256<<10, 0),
		netem.Symmetric("100m", netem.Mbps(100), 10*time.Millisecond, 128<<10, 0)})
	cfg := DefaultConfig()
	cfg.SendBufBytes = 2 << 20
	cfg.RecvBufBytes = 2 << 20
	busy := map[int]bool{} // subflows seen holding payload
	peak, excess := 0, -1<<30
	blocks := func(n int) int { return (n + 16<<10 - 1) / (16 << 10) }
	h.sampleClient(time.Millisecond, func(c *Connection) {
		copied := blocks(c.unackedBytes()) + 1
		for _, s := range c.subflows {
			if s.ep.SendQueue() != &c.sndBuf {
				t.Fatalf("subflow %d sends from a queue of its own", s.id)
			}
			if s.ep.QueuedBytes() > 0 {
				busy[s.id] = true
			}
			copied += blocks(s.ep.QueuedBytes()) + 1
		}
		peak = max(peak, c.sndBuf.Blocks())
		excess = max(excess, c.sndBuf.Blocks()-copied)
	})
	res := h.runBulkTransfer(cfg, cfg, 1<<40, 2*time.Second)
	if res.received < 16<<20 || len(busy) < 2 {
		t.Fatalf("%d bytes received, %d subflows carried payload: not a two-subflow bulk transfer", res.received, len(busy))
	}
	if excess > 0 {
		t.Fatalf("the shared send queue held up to %d blocks more than a copy per subflow would (peak %d)", excess, peak)
	}
	t.Logf("%d bytes received, the send queue peaked at %d blocks, excess %d", res.received, peak, excess)
}

// TestEffectiveSendBufferCapIsExact: once Mechanism 3's autotuned size has
// reached the configured maximum, effectiveSendBuffer returns the maximum
// without summing over the subflows; the full computation must agree at
// every point of a transfer, before and after the cap is reached.
func TestEffectiveSendBufferCapIsExact(t *testing.T) {
	h := newHarness(t, 8, netem.WiFi3GSpec())
	cfg := DefaultConfig()
	cfg.SendBufBytes = 192 << 10
	capped, growing := 0, 0
	h.sampleClient(5*time.Millisecond, func(c *Connection) {
		if c.Fallback() {
			return // not autotuned (yet): both return the maximum
		}
		if c.autotunedSndBuf >= c.cfg.SendBufBytes {
			capped++
		} else {
			growing++
		}
		if fast, full := c.effectiveSendBuffer(), c.autotuneSendBuffer(); fast != full {
			t.Fatalf("at %v effectiveSendBuffer()=%d, the full computation %d", h.net.Sim.Now(), fast, full)
		}
	})
	const total = 2 << 20
	if res := h.runBulkTransfer(cfg, cfg, total, 60*time.Second); res.received < total {
		t.Fatalf("received %d of %d bytes", res.received, total)
	}
	if capped == 0 || growing == 0 {
		t.Fatalf("%d samples at the cap, %d below it: both regimes must be covered", capped, growing)
	}
}
