package core

import (
	"fmt"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// TestDebugStall is a diagnostic harness kept skipped in normal runs; enable
// it with -run TestDebugStall -v when investigating transfer stalls.
func TestDebugStall(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic test")
	}
	h := newHarness(t, 2, netem.WiFi3GSpec())
	cli := DefaultConfig()
	cli.SendBufBytes = 1 << 20
	cli.RecvBufBytes = 1 << 20
	srv := cli
	total := 40 << 20

	received := 0
	var serverConn *Connection
	_, err := h.srvMgr.Listen(80, srv, func(c *Connection) {
		serverConn = c
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := h.cliMgr.Dial(h.net.Client.Interfaces()[0], packet.Endpoint{Addr: h.net.ServerAddr(0), Port: 80}, cli)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32<<10)
	sent := 0
	pump := func() {
		for sent < total {
			w := conn.Write(payload[:min(len(payload), total-sent)])
			if w == 0 {
				return
			}
			sent += w
		}
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump

	for i := 1; i <= 12; i++ {
		if err := h.net.Sim.RunUntil(time.Duration(i) * 5 * time.Second); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("t=%v sent=%d received=%d dataUna=%d dataNxt=%d rwndLimit=%d sndBuf=%d inflight=%d effSndBuf=%d\n",
			h.net.Sim.Now(), sent, received, conn.dataUna, conn.dataNxt, conn.rwndLimit, conn.unackedBytes(), len(conn.inflight), conn.effectiveSendBuffer())
		for _, s := range conn.subflows {
			fmt.Printf("  client subflow %d state=%v cwnd=%d inflight=%d srtt=%v sendSpace=%d queued=%d peerWnd=%d established=%v failed=%v\n",
				s.id, s.ep.State(), s.ep.Cwnd(), s.ep.BytesInFlight(), s.ep.SRTT(), s.ep.SendSpace(), s.ep.QueuedBytes(), s.ep.PeerWindow(), s.established, s.failed)
		}
		if serverConn != nil {
			fmt.Printf("  server dataRcvNxt=%d rcvBuf=%d ofo=%d window=%d subflows=%d\n",
				serverConn.dataRcvNxt, serverConn.rcvBuf.Len(), serverConn.ofo.Bytes(), serverConn.receiveWindowWouldBe(), len(serverConn.subflows))
			for _, s := range serverConn.subflows {
				fmt.Printf("  server subflow %d state=%v rcvqueued=%d mappings=%d\n", s.id, s.ep.State(), s.ep.ReceiveQueuedBytes(), len(s.rxMappings))
			}
		}
		if received >= total {
			break
		}
	}
}
