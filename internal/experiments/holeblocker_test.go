package experiments

import (
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
)

// TestHoleBlockerKeepsGoodputWithoutStalling: the §3.3 firewall that stops
// forwarding after a sequence hole (HoleBlocker on the WiFi path) blocks
// segments, yet both single-path TCP and MPTCP over WiFi+3G stay well above
// mbox's 0.5 Mbps "transfer ok" line, and neither end counts a stall
// episode: a timeout repairs every hole the blocker leaves in the window
// (internal/tcp enterRecovery), not one segment per timeout. Measured at
// seed 42: 6.91 Mbps (TCP) and 6.86 Mbps (MPTCP).
func TestHoleBlockerKeepsGoodputWithoutStalling(t *testing.T) {
	mptcp := core.DefaultConfig() // mbox's configuration
	mptcp.SendBufBytes = 200 << 10
	mptcp.RecvBufBytes = 200 << 10
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"tcp", tcpBaseline(200 << 10)},
		{"mptcp", mptcp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hb := middlebox.NewHoleBlocker()
			res, err := RunBulk(BulkOptions{
				Seed:     42,
				Specs:    netem.WiFi3GSpec(),
				Boxes:    map[int][]netem.Box{0: {hb}},
				Config:   tc.cfg,
				Duration: 8 * time.Second,
				Warmup:   2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("goodput %.3f Mbps, %d segments blocked, stall episodes %d (client) %d (server)",
				res.GoodputMbps, hb.Blocked, res.ClientStats.StallEpisodes, res.ServerStats.StallEpisodes)
			if hb.Blocked == 0 {
				t.Error("the hole blocker blocked nothing")
			}
			if res.GoodputMbps <= 0.5 {
				t.Errorf("goodput %.3f Mbps is below mbox's 0.5 Mbps line", res.GoodputMbps)
			}
			if n := res.ClientStats.StallEpisodes + res.ServerStats.StallEpisodes; n != 0 {
				t.Errorf("%d stall episodes, want 0", n)
			}
		})
	}
}
