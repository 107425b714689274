package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/tcp"
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
			n := min(len(payload), total-sent)
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

func (b *stripBox) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	isSYN := seg.Flags.Has(packet.FlagSYN)
	if isSYN && !b.skipSYN || !isSYN && !b.synOnly {
		b.removed += seg.RemoveOptions(func(o packet.Option) bool { return o.Kind() == packet.OptMPTCP })
	}
	ctx.Send(dir, seg)
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
// the DATA_ACK for most of the run. They pin only their own blocks (DESIGN.md:
// one straggler pins 16 KiB, not the stream after it): at every sample the
// queue holds no more blocks than the bytes from dataUna to the tail span,
// plus one for alignment, plus the blocks under the chunks the subflows still
// hold below dataUna. Keeping every byte from the lowest such chunk instead
// would need up to 58 times the bound on this run.
func TestSubflowsSendFromConnectionQueue(t *testing.T) {
	h := newHarness(t, 1, []netem.PathSpec{
		netem.Symmetric("1g", netem.Mbps(1000), 500*time.Microsecond, 256<<10, 0),
		netem.Symmetric("100m", netem.Mbps(100), 10*time.Millisecond, 128<<10, 0)})
	cfg := DefaultConfig()
	cfg.SendBufBytes = 2 << 20
	cfg.RecvBufBytes = 2 << 20
	busy := map[int]bool{} // subflows seen holding payload
	peak, excess, stragglers := 0, -1<<30, 0
	const block = 16 << 10
	h.sampleClient(time.Millisecond, func(c *Connection) {
		bound := int((c.sndBuf.TailOffset()-c.dataUna+block-1)/block) + 1
		held, pinned := 0, map[uint64]bool{}
		for _, s := range c.subflows {
			if s.ep.SendQueue() != &c.sndBuf {
				t.Fatalf("subflow %d sends from a queue of its own", s.id)
			}
			if s.ep.QueuedBytes() > 0 {
				busy[s.id] = true
			}
			forEachChunk(s.ep, func(off uint64, n int) {
				if n > 0 && off < c.dataUna {
					held++
					for b := off / block; b <= (min(off+uint64(n), c.dataUna)-1)/block; b++ {
						pinned[b] = true
					}
				}
			})
		}
		bound += len(pinned)
		peak = max(peak, c.sndBuf.Blocks())
		excess = max(excess, c.sndBuf.Blocks()-bound)
		stragglers = max(stragglers, held)
	})
	res := h.runBulkTransfer(cfg, cfg, 1<<40, 2*time.Second)
	if res.received < 16<<20 || len(busy) < 2 {
		t.Fatalf("%d bytes received, %d subflows carried payload: not a two-subflow bulk transfer", res.received, len(busy))
	}
	if stragglers == 0 {
		t.Fatal("no chunk was ever held below dataUna: the run does not exercise pinning")
	}
	if excess > 0 {
		t.Fatalf("the shared send queue held up to %d blocks more than its unacked bytes and stragglers pin (peak %d)", excess, peak)
	}
	t.Logf("%d bytes received, the send queue peaked at %d blocks, up to %d chunks held below dataUna, excess %d",
		res.received, peak, stragglers, excess)
}

// forEachChunk calls f with the send-queue range of every chunk ep holds,
// sent or not. The endpoint keeps its chunks to itself, so the test reads
// them through reflection, without changing anything.
func forEachChunk(ep *tcp.Endpoint, f func(off uint64, n int)) {
	v := reflect.ValueOf(ep).Elem()
	for _, q := range []string{"retransQ", "sendQueue"} {
		chunks := v.FieldByName(q)
		for i := 0; i < chunks.Len(); i++ {
			c := chunks.Index(i).Elem()
			f(c.FieldByName("payOff").Uint(), int(c.FieldByName("payLen").Int()))
		}
	}
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

// TestStallEpisodes: a WiFi+3G upload whose two paths both go silently down
// for longer than StallInterval, twice with recovery in between, counts a
// stall episode for each outage, and one that loses both paths for a second
// counts none. Each episode is one stall event carrying the bytes DATA_ACKed
// when the stall began and how long the connection had gone without
// progress; a recorder attached to the connection changes none of its
// counters.
//
// The two outages count three episodes, and the middle one pins a known gap
// in M1's trigger. From about 4.75 s to 6.25 s the connection is
// receive-window-limited (rwndLimit - dataNxt = 0), WiFi is idle with nothing
// in flight and 37 943 B of cwnd space, and 3G waits out its backed-off RTO
// until about 6.2 s. No opportunistic retransmission fills the hole, because
// Connection.pump stops on a full send buffer (avail <= 0) before it reaches
// onReceiveWindowLimited. When that is fixed the middle episode goes and this
// test must flip to two.
func TestStallEpisodes(t *testing.T) {
	const total = 16 << 20
	type outage struct{ from, to time.Duration }
	run := func(outages []outage, traced bool) (ConnStats, []probe.Event, []uint64) {
		h := newHarness(t, 9, netem.WiFi3GSpec())
		var rec *probe.Recorder
		if traced {
			rec = probe.NewRecorder(h.net.Sim, 0, 1, 0)
			h.cliMgr.SetProbe(rec, 0)
		}
		setDown := func(down bool) func() {
			return func() {
				for _, p := range h.net.Paths {
					p.SetDown(down)
				}
			}
		}
		for _, o := range outages {
			h.net.Sim.Schedule(o.from, setDown(true))
			h.net.Sim.Schedule(o.to, setDown(false))
		}
		var dataUna []uint64 // one sample per 10 ms
		h.sampleClient(10*time.Millisecond, func(c *Connection) { dataUna = append(dataUna, c.dataUna) })
		cli, srv := wifi3GConfig(0)
		res := h.runBulkTransfer(cli, srv, total, 120*time.Second)
		if res.received < total {
			t.Fatalf("outages %v: received %d of %d bytes", outages, res.received, total)
		}
		if last := outages[len(outages)-1].to; res.finishedAt < last {
			t.Fatalf("the transfer finished at %v, before the last outage ended at %v", res.finishedAt, last)
		}
		if rec.Dropped(0) != 0 {
			t.Fatalf("the recorder dropped %d events", rec.Dropped(0))
		}
		return res.clientConn.Stats(), rec.AppendEvents(nil, 0), dataUna
	}

	twice := []outage{{time.Second, 4 * time.Second}, {12 * time.Second, 15 * time.Second}}
	st, events, dataUna := run(twice, true)
	if st.StallEpisodes != 3 {
		t.Fatalf("two outages of %v: %d stall episodes, want 3 (known M1 trigger gap: flip to 2)", twice[0].to-twice[0].from, st.StallEpisodes)
	}
	var stalls []probe.Event
	for _, e := range events {
		if e.Kind == probe.KindStall {
			stalls = append(stalls, e)
		}
	}
	if len(stalls) != 3 {
		t.Fatalf("%d stall events for 3 episodes", len(stalls))
	}
	if gap := stalls[1]; gap.At-time.Duration(gap.B) < twice[0].to || gap.At > twice[1].from {
		t.Errorf("the middle stall, detected at %v after %v without progress, is not the gap between the outages", gap.At, time.Duration(gap.B))
	}
	for i, e := range []probe.Event{stalls[0], stalls[2]} {
		began := e.At - time.Duration(e.B)
		t.Logf("stall %d: detected at %v, %v without progress, %d bytes DATA_ACKed", i, e.At, time.Duration(e.B), e.A)
		if e.Conn != 0 || e.Subflow != -1 {
			t.Errorf("stall %d is scoped to conn %d subflow %d, want the connection (0, -1)", i, e.Conn, e.Subflow)
		}
		if time.Duration(e.B) < StallInterval || began > twice[i].from || began < twice[i].from-time.Second {
			t.Errorf("stall %d detected at %v after %v without progress: it began at %v, not just before the outage at %v",
				i, e.At, time.Duration(e.B), began, twice[i].from)
		}
		if mid := (began + e.At) / 2 / (10 * time.Millisecond); e.A <= 0 || uint64(e.A) != dataUna[mid] {
			t.Errorf("stall %d carries %d bytes DATA_ACKed; the connection had %d", i, e.A, dataUna[mid])
		}
	}
	if untraced, _, _ := run(twice, false); untraced != st {
		t.Errorf("the recorder changed the counters:\ntraced   %+v\nuntraced %+v", st, untraced)
	}

	short := []outage{{time.Second, 2 * time.Second}}
	if st, _, _ := run(short, false); st.StallEpisodes != 0 {
		t.Fatalf("a 1s outage counted %d stall episodes, want 0", st.StallEpisodes)
	}
}
