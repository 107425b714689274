package mptcpgo

import (
	"fmt"
	"testing"
	"time"
)

// TestDialErrorPaths pins the facade's error behaviour: unknown hosts, bad
// targets and out-of-range interface indices must fail cleanly instead of
// panicking or silently mis-routing.
func TestDialErrorPaths(t *testing.T) {
	net, err := NewTopology(1).
		Connect("client", "server", WiFiLink()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		dial func() error
	}{
		{"unknown dialing host", func() error { _, err := net.Dial("nope", "server:80"); return err }},
		{"unknown target host", func() error { _, err := net.Dial("client", "nope:80"); return err }},
		{"missing port", func() error { _, err := net.Dial("client", "server"); return err }},
		{"empty target host", func() error { _, err := net.Dial("client", ":80"); return err }},
		{"bad port", func() error { _, err := net.Dial("client", "server:99999"); return err }},
		{"interface out of range", func() error { _, err := net.Dial("client", "server:80", WithInterface(7)); return err }},
		{"target has no path from interface", func() error { _, err := net.Dial("server", "client:80", WithInterface(1)); return err }},
	}
	for _, tc := range cases {
		if err := tc.dial(); err == nil {
			t.Errorf("%s: Dial unexpectedly succeeded", tc.name)
		}
	}
	// The server can dial the client over their shared path.
	if _, err := net.Dial("server", "client:9", WithTCPOnly()); err != nil {
		t.Errorf("reverse dial over a shared path failed: %v", err)
	}
}

func TestNetworkIndexErrorPaths(t *testing.T) {
	s, err := NewTopology(2).Connect("client", "server", WiFiLink()).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dial("client", "server:80", WithInterface(1)); err == nil {
		t.Error("Dial with out-of-range interface index must fail")
	}
	if err := s.SetPathDown(1, true); err == nil {
		t.Error("SetPathDown with out-of-range path index must fail")
	}
	if err := s.SetPathDown(-1, true); err == nil {
		t.Error("SetPathDown with negative path index must fail")
	}
	if err := s.SetPathDown(0, true); err != nil {
		t.Errorf("SetPathDown(0) failed: %v", err)
	}
	if err := s.SetLinkDown("wifi", false); err != nil {
		t.Errorf("SetLinkDown(wifi) failed: %v", err)
	}
	if err := s.SetLinkDown("nope", true); err == nil {
		t.Error("SetLinkDown with unknown link name must fail")
	}
	if _, err := s.Listen("nope", 80, DefaultConfig(), nil); err == nil {
		t.Error("Listen on unknown host must fail")
	}
}

func TestTopologyBuildErrors(t *testing.T) {
	if _, err := NewTopology(1).Connect("a", "a", WiFiLink()).Build(); err == nil {
		t.Error("self-link must fail Build")
	}
	if _, err := NewTopology(1).AddHost("").Build(); err == nil {
		t.Error("empty host name must fail Build")
	}
	// A host with no links is legal; dialing from it is not.
	net, err := NewTopology(1).AddHost("lonely").AddHost("server").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Dial("lonely", "server:80"); err == nil {
		t.Error("dial from an unconnected host must fail")
	}
}

// runManyClients builds a star of n clients with heterogeneous access links
// around one server and returns the bytes the server received after the
// given simulated duration.
func runManyClients(t *testing.T, seed uint64, n int, duration time.Duration) int {
	t.Helper()
	topo := NewTopology(seed).AddHost("server")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("client%d", i)
		rate := 2.0 + 0.5*float64(i%16)
		rtt := time.Duration(10+20*(i%10)) * time.Millisecond
		topo.Connect(name, "server", SymmetricLink(fmt.Sprintf("access%d", i), rate, rtt, 64<<10))
	}
	net, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SendBufBytes = 64 << 10
	cfg.RecvBufBytes = 64 << 10
	cfg.AdvertiseAddresses = false

	received := 0
	if _, err := net.Listen("server", 80, cfg, func(c *Conn) {
		c.OnReadable = func() {
			for len(c.Read(64<<10)) > 0 {
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16<<10)
	for i := 0; i < n; i++ {
		conn, err := net.Dial(fmt.Sprintf("client%d", i), "server:80", WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		pump := func() {
			for conn.Write(payload) > 0 {
			}
		}
		conn.OnEstablished = pump
		conn.OnWritable = pump
	}
	if err := net.Run(duration); err != nil {
		t.Fatal(err)
	}
	for _, c := range net.Manager("server").Connections() {
		received += int(c.Stats().BytesDelivered)
	}
	return received
}

// TestManyClientTopologyDeterministic drives 32 clients into one server
// through the builder API (the acceptance topology for this redesign) and
// checks the aggregate is reproducible for a fixed seed. CI runs this test
// under -race.
func TestManyClientTopologyDeterministic(t *testing.T) {
	const clients = 32
	first := runManyClients(t, 23, clients, 2*time.Second)
	if first == 0 {
		t.Fatal("no data delivered across the 32-client topology")
	}
	second := runManyClients(t, 23, clients, 2*time.Second)
	if first != second {
		t.Fatalf("aggregate not deterministic: run1=%d bytes, run2=%d bytes", first, second)
	}
}
