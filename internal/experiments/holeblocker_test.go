package experiments

import (
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
)

// TestHoleBlockerCollapsesWithoutStalling pins a known defect: the §3.3
// firewall that stops forwarding after a sequence hole (HoleBlocker on the
// WiFi path) collapses both single-path TCP and MPTCP over WiFi+3G to well
// under mbox's 0.5 Mbps "transfer ok" line, yet neither end counts a stall
// episode: data keeps trickling through, so the collapse is a rate problem,
// not a stall. Measured at seed 42: 0.053 Mbps (TCP) and 0.080 Mbps (MPTCP),
// 65 and 63 segments blocked; seeds 1143 and 7 give the same numbers, and a
// 30 s run still counts no stall. The run is pinned at 8 s because over 30 s
// MPTCP climbs to 0.80 Mbps. The fix ROADMAP item 2(c) asks for must flip
// the goodput assertion.
func TestHoleBlockerCollapsesWithoutStalling(t *testing.T) {
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
			if res.GoodputMbps >= 0.5 {
				t.Errorf("goodput %.3f Mbps clears mbox's 0.5 Mbps line: the known defect is fixed, flip this assertion", res.GoodputMbps)
			}
			if n := res.ClientStats.StallEpisodes + res.ServerStats.StallEpisodes; n != 0 {
				t.Errorf("%d stall episodes, want 0", n)
			}
		})
	}
}
