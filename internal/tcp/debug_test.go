package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// TestDebugTCPStall is a diagnostic; run with -run TestDebugTCPStall -v.
func TestDebugTCPStall(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic test")
	}
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 64 << 10})
	cfg := Config{}
	total := 500 << 10

	received := 0
	var srv *Endpoint
	_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
		srv = ep
		ep.OnReadable = func() {
			for len(ep.Read(64<<10)) > 0 {
				received = int(ep.Stats().BytesDelivered)
			}
			received = int(ep.Stats().BytesDelivered)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	pump := func() {
		for sent < total {
			w := client.Write(bytes.Repeat([]byte{1}, min(32<<10, total-sent)))
			if w == 0 {
				break
			}
			sent += w
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump

	for i := 1; i <= 6; i++ {
		if err := n.Sim.RunUntil(time.Duration(i) * 2 * time.Second); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("t=%v sent=%d recv=%d | cli: state=%v una->nxt=%d cwnd=%d inflight=%d retransQ=%d sendQ=%d dupacks=%d recovery=%v rtoPending=%v rto=%v stats=%+v\n",
			n.Sim.Now(), sent, received, client.state, client.sndNxt.DiffFrom(client.sndUna), client.Cwnd(), client.BytesInFlight(), len(client.retransQ), len(client.sendQueue), client.dupAcks, client.inRecovery, client.rtoTimer.Pending(), client.backedOffRTO(), client.stats)
		if srv != nil {
			fmt.Printf("   srv: rcvNxt-irs=%d ofoBytes=%d sackRanges=%d unread=%d\n",
				srv.RelativeRcvNxt(), srv.ReceiveQueuedBytes()-srv.ReadableBytes(), len(srv.sackRanges), srv.ReadableBytes())
		}
		if received >= total {
			break
		}
	}
}
