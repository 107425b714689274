package experiments

import (
	"fmt"
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
)

// TestDebugProactiveProxy is a diagnostic for the proactive-ACK middlebox
// scenario; run with -run TestDebugProactiveProxy -v.
func TestDebugProactiveProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	cfg := core.DefaultConfig()
	cfg.SendBufBytes = 200 << 10
	cfg.RecvBufBytes = 200 << 10
	res, err := RunBulk(BulkOptions{
		Seed:     7,
		Specs:    netem.WiFi3GSpec(),
		Boxes:    map[int][]netem.Box{0: {middlebox.NewProactiveACKer()}},
		Config:   cfg,
		Duration: 6 * time.Second,
		Warmup:   1 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("proxy: goodput=%.2f Mbps total=%d mptcp=%v subflows=%d clientStats=%+v serverStats=%+v\n",
		res.GoodputMbps, res.TotalReceived, res.MPTCPActive, res.Subflows, res.ClientStats, res.ServerStats)

	res2, err := RunBulk(BulkOptions{
		Seed:     7,
		Specs:    netem.WiFi3GSpec(),
		Boxes:    map[int][]netem.Box{0: {middlebox.NewCoalescer(2, 8192)}},
		Config:   cfg,
		Duration: 6 * time.Second,
		Warmup:   1 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("coalesce: goodput=%.2f Mbps total=%d mptcp=%v subflows=%d clientStats=%+v serverStats=%+v\n",
		res2.GoodputMbps, res2.TotalReceived, res2.MPTCPActive, res2.Subflows, res2.ClientStats, res2.ServerStats)
}
