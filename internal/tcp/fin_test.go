package tcp

import (
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// scriptBox is an on-path element that hands every segment to its function,
// which passes it on, holds it for later or drops it.
type scriptBox func(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment)

func (f scriptBox) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	f(ctx, dir, seg)
}

// TestOutOfOrderFINClosesWithoutTimeout: a FIN that arrives ahead of missing
// data — on the last data segment, or bare — is handled once the hole before
// it is filled, as Linux keeps it in its out-of-order queue. The close
// completes at once; neither end waits out a retransmission timeout. The
// receiving endpoint, recycled afterwards, comes back with no FIN pending.
func TestOutOfOrderFINClosesWithoutTimeout(t *testing.T) {
	const segs = 4
	for _, merge := range []bool{false, true} {
		name := "bare FIN"
		if merge {
			name = "data+FIN"
		}
		t.Run(name, func(t *testing.T) {
			n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond, QueueBytes: 64 << 10})
			// Hold the last data segment (and, to merge, the one before it)
			// until the FIN passes; then send the FIN (on the last data
			// segment, to merge) ahead of what was held.
			hold := 1
			if merge {
				hold = 2
			}
			dataSeen, released := 0, false
			var held []*packet.Segment
			n.Path(0).AddBox(scriptBox(func(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
				switch {
				case dir != netem.AtoB || released:
				case len(seg.Payload) > 0:
					if dataSeen++; dataSeen > segs-hold {
						held = append(held, seg)
						return
					}
				case seg.Flags.Has(packet.FlagFIN):
					released = true
					if merge {
						last := held[len(held)-1]
						held = held[:len(held)-1]
						last.Flags |= packet.FlagFIN
						seg.Release()
						seg = last
					}
					ctx.Send(dir, seg)
					for _, h := range held {
						ctx.Send(dir, h)
					}
					return
				}
				ctx.Send(dir, seg)
			}))

			received := 0
			var server *Endpoint
			_, err := Listen(n.Server, 80, Config{}, func(ep *Endpoint, _ *packet.Segment) {
				server = ep
				ep.OnReadable = func() {
					for data := ep.Read(4096); len(data) > 0; data = ep.Read(4096) {
						received += len(data)
					}
					if ep.EOF() {
						ep.Close()
					}
				}
			})
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, Config{}, nil)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			client.OnEstablished = func() {
				client.Write(make([]byte, segs*client.EffectiveMSS()))
				client.Close()
			}
			if err := n.Sim.RunUntil(10 * time.Second); err != nil {
				t.Fatalf("sim: %v", err)
			}
			if !released || dataSeen != segs {
				t.Fatalf("the FIN was not reordered: released=%v, %d data segments seen", released, dataSeen)
			}
			if received != segs*client.EffectiveMSS() {
				t.Fatalf("received %d of %d bytes", received, segs*client.EffectiveMSS())
			}
			if client.State() != StateClosed || client.Err() != nil || server.State() != StateClosed || server.Err() != nil {
				t.Fatalf("close did not complete: client %v (%v), server %v (%v)", client.State(), client.Err(), server.State(), server.Err())
			}
			if c, s := client.Stats().Timeouts, server.Stats().Timeouts; c != 0 || s != 0 {
				t.Fatalf("close waited out a timeout: %d client, %d server RTOs, want 0", c, s)
			}

			if !server.finPending {
				t.Fatal("server recorded no FIN")
			}
			server.Recycle()
			next, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, Config{}, nil)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			if next != server {
				t.Fatal("the recycled endpoint was not reused")
			}
			if next.finPending || next.finSeq != 0 {
				t.Fatalf("recycled endpoint starts with a FIN pending at %v", next.finSeq)
			}
		})
	}
}
