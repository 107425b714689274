package tcp

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
)

// testNet builds a single-path client/server topology.
func testNet(t *testing.T, cfg netem.LinkConfig) *netem.Network {
	t.Helper()
	s := sim.New(1)
	return netem.Build(s, netem.PathSpec{Name: "p0", Config: netem.PathConfig{AB: cfg, BA: cfg}})
}

// runTransfer sends total bytes from client to server over a fresh
// connection and returns the completion time and the received data length.
func runTransfer(t *testing.T, n *netem.Network, cfg Config, total int, deadline time.Duration) (time.Duration, int) {
	t.Helper()
	received := 0
	var done time.Duration

	_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
		ep.OnReadable = func() {
			for {
				data := ep.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
			}
			if received >= total && done == 0 {
				done = n.Sim.Now()
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sent := 0
	pump := func() {
		for sent < total {
			chunk := min(32<<10, total-sent)
			w := client.Write(bytes.Repeat([]byte{byte(sent)}, chunk))
			if w == 0 {
				break
			}
			sent += w
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump

	if err := n.Sim.RunUntil(deadline); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return done, received
}

func TestHandshakeAndTransfer(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 64 << 10})
	done, received := runTransfer(t, n, Config{}, 500<<10, 10*time.Second)
	if received != 500<<10 {
		t.Fatalf("received %d bytes, want %d", received, 500<<10)
	}
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
	// 500 KB over 10 Mbps is ~0.4 s plus slow start; allow generous slack.
	if done > 3*time.Second {
		t.Fatalf("transfer too slow: %v", done)
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	link := netem.LinkConfig{RateBps: netem.Mbps(8), Delay: 10 * time.Millisecond, QueueBytes: 80 << 10}
	n := testNet(t, link)
	total := 12 << 20
	done, received := runTransfer(t, n, Config{SendBufBytes: 512 << 10, RecvBufBytes: 512 << 10}, total, 60*time.Second)
	if received < total {
		t.Fatalf("received %d of %d bytes", received, total)
	}
	rate := float64(total*8) / done.Seconds() / 1e6
	if rate < 6.0 {
		t.Fatalf("throughput %.2f Mbps, want at least 6 Mbps on an 8 Mbps link", rate)
	}
}

func TestTransferWithLoss(t *testing.T) {
	link := netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 128 << 10, LossRate: 0.01}
	n := testNet(t, link)
	total := 1 << 20
	done, received := runTransfer(t, n, Config{}, total, 60*time.Second)
	if received < total {
		t.Fatalf("received %d of %d bytes under 1%% loss", received, total)
	}
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
}

func TestSmallReceiveWindowLimitsThroughput(t *testing.T) {
	// 2 Mbps, 150 ms RTT "3G" path: BDP is ~37.5 KB. A 16 KB receive buffer
	// must keep throughput well below the link rate.
	link := netem.LinkConfig{RateBps: netem.Mbps(2), Delay: 75 * time.Millisecond, QueueBytes: 512 << 10}
	n := testNet(t, link)
	total := 256 << 10
	cfg := Config{RecvBufBytes: 16 << 10, SendBufBytes: 256 << 10}
	// The automatic window-scale shift covers the buffer with none at all, so
	// the advertised window is the unscaled 16 KB.
	if shift := windowShift(cfg.RecvBufBytes); shift != 0 {
		t.Fatalf("window shift for a 16 KB buffer = %d, want 0", shift)
	}
	done, received := runTransfer(t, n, cfg, total, 60*time.Second)
	if received < total {
		t.Fatalf("received %d of %d bytes", received, total)
	}
	rate := float64(total*8) / done.Seconds() / 1e6
	// Window-limited throughput: 16 KB per 150 ms RTT is ~0.87 Mbps.
	if rate > 1.4 {
		t.Fatalf("throughput %.2f Mbps should be window-limited below 1.4 Mbps", rate)
	}
}

func TestGracefulClose(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond, QueueBytes: 64 << 10})
	cfg := Config{}

	var serverEp *Endpoint
	_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
		serverEp = ep
		ep.OnReadable = func() {
			for len(ep.Read(4096)) > 0 {
			}
			if ep.EOF() {
				ep.Close()
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	client.OnEstablished = func() {
		client.Write([]byte("hello, multipath world"))
		client.Close()
	}
	if err := n.Sim.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if client.State() != StateClosed {
		t.Fatalf("client state = %v, want CLOSED", client.State())
	}
	if serverEp == nil || serverEp.State() != StateClosed {
		t.Fatalf("server state = %v, want CLOSED", serverEp.State())
	}
	if client.Err() != nil {
		t.Fatalf("client terminal error: %v", client.Err())
	}
}

func TestConnectionRefusedRST(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond})
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 9999}, Config{}, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := n.Sim.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if client.State() != StateClosed {
		t.Fatalf("client state = %v, want CLOSED after RST", client.State())
	}
	if client.Err() == nil {
		t.Fatal("expected a terminal error after connection refused")
	}
}

// TestRefusedDialRecyclesEndpoint: a dial onto a four-tuple the host has
// registered already fails, and the endpoint it built goes back to the
// simulator's free list, where the next endpoint built takes it without
// allocating.
func TestRefusedDialRecyclesEndpoint(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond})
	iface := n.Client.Interfaces()[0]
	local := packet.Endpoint{Addr: iface.Addr(), Port: 40000}
	remote := packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}
	if _, err := DialFrom(iface, local, remote, Config{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DialFrom(iface, local, remote, Config{}, nil); err == nil {
		t.Fatal("a second dial onto the same four-tuple succeeded")
	}
	free := sim.Local[freeLists](n.Sim)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	free.endpoints.Put(free.endpoints.Get())
	runtime.ReadMemStats(&after)
	if after.Mallocs != before.Mallocs {
		t.Fatal("the refused dial's endpoint is not on the free list")
	}
}

func TestRTTEstimate(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 25 * time.Millisecond, QueueBytes: 64 << 10})
	done, _ := runTransfer(t, n, Config{}, 64<<10, 10*time.Second)
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
	// RTT is 50 ms propagation plus queueing; the estimate should be in a
	// sane band.
	// (Validated indirectly through completion; direct SRTT access tested in
	// endpoint_more_test.go.)
}

// TestTeardownReleasesSendQueue resets a sender in the middle of a transfer:
// the unacknowledged bytes' blocks must go back to the pool with the
// teardown, and the receiver's queue gives its own back as it is read, so
// once the network has drained no pool buffer is outstanding — none leaked,
// none put back twice.
func TestTeardownReleasesSendQueue(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond, QueueBytes: 64 << 10})
	// The shared counters cover the simulator's front once it is flushed.
	outstanding := func() int64 {
		sim.Local[pool.Local](n.Sim).Flush()
		return pool.Stats().Outstanding()
	}
	start := outstanding()

	cfg := Config{SendBufBytes: 256 << 10}
	received := 0
	_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
		ep.OnReadable = func() {
			for data := ep.Read(4096); len(data) > 0; data = ep.Read(4096) {
				received += len(data)
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	const total = 200 << 10
	client.OnEstablished = func() {
		if w := client.Write(make([]byte, total)); w != total {
			t.Errorf("write accepted %d of %d bytes", w, total)
		}
	}
	queuedAtAbort := 0
	n.Sim.Schedule(60*time.Millisecond, func() {
		queuedAtAbort = client.QueuedBytes()
		if held := outstanding() - start; held < int64(queuedAtAbort/(16<<10)) {
			t.Errorf("%d bytes queued but only %d pool buffers outstanding", queuedAtAbort, held)
		}
		client.SendReset()
	})
	if err := n.Sim.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if queuedAtAbort < 64<<10 || received == 0 || received >= total {
		t.Fatalf("abort was not mid-transfer: %d bytes queued at abort, %d of %d received", queuedAtAbort, received, total)
	}
	if client.State() != StateClosed {
		t.Fatalf("client state = %v, want CLOSED", client.State())
	}
	if got := outstanding(); got != start {
		t.Fatalf("%d pool buffers outstanding after the aborted transfer drained", got-start)
	}
}

// TestSpillPastInlineQueuesChangesNothing: an endpoint's write queue and
// SACK ranges start on arrays inside the endpoint and move to the heap when
// they outgrow them. A lossy plain-TCP transfer whose queue holds hundreds of
// chunks, sent and unsent, and whose receiver holds more holes than its
// inline array, must run exactly like the same transfer with both on roomy
// heap arrays from the start: same bytes at the same time, same counters on
// both ends. The out-of-order queue, built at the first hole, must have been
// built.
func TestSpillPastInlineQueuesChangesNothing(t *testing.T) {
	link := netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 32 << 10, LossRate: 0.01}
	const total = 400 << 10
	run := func(onHeap bool) (done time.Duration, received int, cli, srv Stats, peakSent, peakUnsent, sackRanges int) {
		n := testNet(t, link)
		prep := func(e *Endpoint) {
			if onHeap {
				var q buffer.Queue[*chunk]
				q.Init(make([]*chunk, 0, 4096))
				for _, c := range e.chunks.Items() {
					q.Push(c)
				}
				e.chunks = q
				e.sackRanges = make([]packet.SACKBlock, 0, 64)
			}
		}
		var server *Endpoint
		_, err := Listen(n.Server, 80, Config{}, func(ep *Endpoint, _ *packet.Segment) {
			server = ep
			prep(ep)
			ep.OnReadable = func() {
				for data := ep.Read(64 << 10); len(data) > 0; data = ep.Read(64 << 10) {
					for _, b := range data {
						if b != byte(received*7) {
							t.Fatalf("byte %d corrupted", received)
						}
						received++
					}
				}
				if received >= total && done == 0 {
					done = n.Sim.Now()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		prep(client)
		sent := 0
		buf := make([]byte, 32<<10)
		pump := func() {
			for sent < total {
				k := min(len(buf), total-sent)
				for i := range buf[:k] {
					buf[i] = byte((sent + i) * 7)
				}
				w := client.Write(buf[:k])
				sent += w
				peakSent = max(peakSent, int(client.sendHead))
				peakUnsent = max(peakUnsent, client.chunks.Len()-int(client.sendHead))
				if w == 0 {
					return
				}
			}
		}
		client.OnEstablished = pump
		client.OnWritable = pump
		var watch func()
		watch = func() {
			if server != nil {
				sackRanges = max(sackRanges, len(server.sackRanges))
			}
			if n.Sim.Now() < 30*time.Second {
				n.Sim.Schedule(time.Millisecond, watch)
			}
		}
		n.Sim.Schedule(time.Millisecond, watch)
		if err := n.Sim.RunUntil(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if server == nil || server.recvOfo == nil || server.stats.SegmentsReceived == 0 {
			t.Fatal("the lossy transfer never queued a segment out of order: the test exercises nothing")
		}
		if client.recvOfo != nil {
			t.Fatal("the sender, which received no data, built an out-of-order queue")
		}
		return done, received, client.Stats(), server.Stats(), peakSent, peakUnsent, sackRanges
	}
	refDone, refReceived, refCli, refSrv, _, _, _ := run(true)
	done, received, cli, srv, peakSent, peakUnsent, sackRanges := run(false)
	if received != total || done == 0 {
		t.Fatalf("received %d of %d bytes (done at %v)", received, total, done)
	}
	if done != refDone || received != refReceived || cli != refCli || srv != refSrv {
		t.Fatalf("inline-then-heap run differs from the all-heap reference:\ndone %v vs %v, received %d vs %d\nclient %+v\n   ref %+v\nserver %+v\n   ref %+v",
			done, refDone, received, refReceived, cli, refCli, srv, refSrv)
	}
	if peakSent <= chunksInline || peakUnsent <= chunksInline || sackRanges <= sackRangesInline {
		t.Fatalf("the write queue peaked at %d sent and %d unsent chunks and %d SACK ranges; the inline arrays hold %d and %d, so nothing spilled",
			peakSent, peakUnsent, sackRanges, chunksInline, sackRangesInline)
	}
}
