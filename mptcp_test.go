package mptcpgo

import (
	"testing"
	"time"
)

// TestFacadeTransfer exercises the public API end to end: build a WiFi+3G
// topology, transfer data over MPTCP, fail the WiFi path mid-transfer and
// verify the connection survives on the remaining subflow.
func TestFacadeTransfer(t *testing.T) {
	s, err := NewTopology(3).
		Connect("client", "server", WiFiLink()).
		Connect("client", "server", ThreeGLink()).
		Build()
	if err != nil {
		t.Fatal(err)
	}

	const total = 3 << 20
	received := 0
	_, err = s.Listen("server", 80, DefaultConfig(), func(c *Conn) {
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
			}
			if c.EOF() {
				c.Close()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := s.Dial("client", "server:80")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32<<10)
	sent := 0
	pump := func() {
		for sent < total {
			n := len(payload)
			if total-sent < n {
				n = total - sent
			}
			w := conn.Write(payload[:n])
			if w == 0 {
				return
			}
			sent += w
		}
		conn.Close()
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump

	// Kill the WiFi path halfway through; the 3G subflow must carry the rest.
	s.Schedule(3*time.Second, func() { _ = s.SetPathDown(0, true) })

	if err := s.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d of %d bytes after WiFi failure", received, total)
	}
	if !conn.MPTCPActive() && conn.Err() != nil {
		t.Fatalf("connection ended with error: %v", conn.Err())
	}
}

func TestFacadeTCPOnly(t *testing.T) {
	s, err := NewTopology(4).Connect("client", "server", GigabitLink("a")).Build()
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	_, err = s.Listen("server", 80, TCPConfig(), func(c *Conn) {
		c.OnReadable = func() {
			for len(c.Read(64<<10)) > 0 {
			}
			received = int(c.Stats().BytesDelivered)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := s.Dial("client", "server:80", WithTCPOnly())
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() { conn.Write(make([]byte, 100<<10)) }
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if conn.MPTCPActive() {
		t.Fatal("TCPConfig must not negotiate MPTCP")
	}
	if received == 0 {
		t.Fatal("no data delivered")
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 13 {
		t.Fatalf("expected at least 13 experiments, got %d: %v", len(ids), ids)
	}
}
