package tcp

import (
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
)

// TestZeroWindowProbes: a plain-TCP receiver whose application stops reading
// closes its window, and the sender, with data still queued, falls back on
// zero-window probes until the application reads again. Every byte must
// arrive once and in order, both ends must close cleanly, and no pool buffer
// may be left outstanding. The cases reach both forms of the probe: an
// MSS-sized chunk at the head of the unsent data lends one byte to a probe
// chunk split off it, and a one-byte chunk is sent whole. In the third, the
// sender queues its chunks as the MPTCP data path does (SendChunk, each with
// a DSS option), so a split probe borrows its owner's option: every option
// must go back to the free list exactly once.
func TestZeroWindowProbes(t *testing.T) {
	const (
		total = 16 << 10
		// A whole number of segments, so the window closes to exactly 0.
		window = 8 * 1460
	)
	for _, tc := range []struct {
		name string
		// oneByteFrom is the stream offset from which every Write carries
		// one byte, so every chunk from there on is one byte long.
		oneByteFrom int
		// dss queues MSS-sized chunks through SendChunk with a DSS option
		// each, instead of through Write.
		dss bool
	}{{"split", total, false}, {"whole", window, false}, {"split-dss", total, true}} {
		t.Run(tc.name, func(t *testing.T) {
			n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond, QueueBytes: 64 << 10})
			outstanding := func() int64 {
				sim.Local[pool.Local](n.Sim).Flush()
				return pool.Stats().Outstanding()
			}
			start := outstanding()

			cfg := Config{RecvBufBytes: window}
			const resume = 5 * time.Second
			var server *Endpoint
			received, reading, closedAt := 0, false, time.Duration(0)
			drain := func() {
				for data := server.Read(4096); len(data) > 0; data = server.Read(4096) {
					for _, b := range data {
						if b != byte(received*7) {
							t.Fatalf("byte %d corrupted", received)
						}
						received++
					}
				}
				if server.EOF() {
					server.Close()
				}
			}
			_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
				server = ep
				ep.OnReadable = func() {
					if reading {
						drain()
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			n.Sim.Schedule(resume, func() {
				if server.advertisedWindowBytes() != 0 {
					t.Errorf("the receiver still advertises %d bytes when it resumes reading", server.advertisedWindowBytes())
				}
				reading = true
				drain()
			})

			client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			sent, mappings := 0, 0
			buf := make([]byte, 32<<10)
			pump := func() {
				for sent < total {
					k := min(len(buf), total-sent)
					if tc.dss {
						k = min(k, client.EffectiveMSS())
					}
					if sent < tc.oneByteFrom {
						k = min(k, tc.oneByteFrom-sent)
					} else {
						k = 1
					}
					for i := range buf[:k] {
						buf[i] = byte((sent + i) * 7)
					}
					w := k
					if !tc.dss {
						w = client.Write(buf[:k])
					} else if k <= client.SendBufferSpace() {
						d := client.NewDSSOption()
						d.HasMapping, d.DataSeq, d.Length = true, packet.DataSeq(sent), uint16(k)
						off := client.SendQueue().TailOffset()
						client.SendQueue().Append(buf[:k])
						if !client.SendChunk(off, k, d) {
							t.Fatal("SendChunk refused a chunk that fits the send buffer")
						}
						mappings++
					} else {
						w = 0
					}
					sent += w
					if w < k {
						return
					}
				}
				client.Close()
			}
			client.OnEstablished = pump
			client.OnWritable = pump
			client.OnClosed = func(err error) {
				if err != nil {
					t.Errorf("client closed with %v", err)
				}
				closedAt = n.Sim.Now()
			}

			if err := n.Sim.RunUntil(60 * time.Second); err != nil {
				t.Fatal(err)
			}
			if probes := client.Stats().PersistProbes; probes == 0 {
				t.Fatal("the sender sent no zero-window probe: the test exercises nothing")
			} else {
				t.Logf("%d probes; closed at %v", probes, closedAt)
			}
			if received != total {
				t.Fatalf("received %d of %d bytes", received, total)
			}
			if closedAt < resume || client.State() != StateClosed || server.State() != StateClosed {
				t.Fatalf("closed at %v: client %v, server %v", closedAt, client.State(), server.State())
			}
			if got := outstanding(); got != start {
				t.Fatalf("%d pool buffers outstanding after the transfer", got-start)
			}
			// Every option is back on the free list, once: the first as many
			// options as were queued come off it distinct.
			free, seen := sim.Local[freeLists](n.Sim), map[*packet.DSSOption]bool{}
			for i := 0; i < mappings; i++ {
				d := free.dss.Get()
				if seen[d] {
					t.Fatalf("a DSS option was freed twice: the free list hands it out again after %d others", i)
				}
				seen[d] = true
			}
		})
	}
}
