package experiments

import (
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// TestProxiedTransferDeliversIntact puts the two boxes of the mbox matrix
// that rewrite the stream rather than strip options on the WiFi path of a
// WiFi+3G upload: a pro-active ACKing proxy, which acknowledges subflow data
// before the receiver has it, and a coalescer, which merges segments and so
// drops one of their mappings. The patterned stream must arrive complete and
// byte for byte, over MPTCP or after a fallback the chaos taxonomy
// classifies, at a goodput above zero.
func TestProxiedTransferDeliversIntact(t *testing.T) {
	for _, c := range []struct {
		name string
		box  netem.Box
	}{
		{"pro-active ACKing proxy", middlebox.NewProactiveACKer()},
		{"segment coalescing", middlebox.NewCoalescer(2, 8192)},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := netem.TwoHostSpec(netem.WiFi3GSpec()...)
			spec.Links[0].Boxes = []netem.Box{c.box}
			w, err := NewWorld(7, spec, "", TraceSpec{}, "", 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Stop()
			cfg := core.DefaultConfig()
			cfg.SendBufBytes, cfg.RecvBufBytes = 200<<10, 200<<10
			const total = 2 << 20
			checker := faults.NewChecker(7, total)
			var doneAt time.Duration
			if _, err := w.Managers["server"].Listen(80, cfg, func(conn *core.Connection) {
				conn.OnReadable = func() {
					for data := conn.Read(64 << 10); len(data) > 0; data = conn.Read(64 << 10) {
						checker.Feed(data)
					}
					if checker.Received() >= total && doneAt == 0 {
						doneAt = w.Sim.Now()
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			conn, err := w.Managers["client"].Dial(w.Net.Client.Interfaces()[0], packet.Endpoint{Addr: w.Net.ServerAddr(0), Port: 80}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var fallback string
			conn.OnFallback = func(reason string) {
				if fallback == "" {
					fallback = reason
				}
			}
			buf := make([]byte, 32<<10)
			sent := 0
			pump := func() {
				for sent < total {
					n := min(len(buf), total-sent)
					checker.Fill(buf[:n], uint64(sent))
					k := conn.Write(buf[:n])
					if k == 0 {
						return
					}
					sent += k
				}
				conn.Close()
			}
			conn.OnEstablished, conn.OnWritable = pump, pump
			if err := w.Sim.RunUntil(60 * time.Second); err != nil {
				t.Fatal(err)
			}
			if !checker.Complete() {
				t.Fatalf("stream not delivered intact: %v\n%s", checker.Err(), faults.DumpConnection(conn))
			}
			if !conn.MPTCPActive() && (fallback == "" || faults.ClassifyFallback(fallback) == "other") {
				t.Fatalf("neither MPTCP nor a classified fallback (reason %q)", fallback)
			}
			goodput := float64(total) * 8 / doneAt.Seconds() / 1e6
			if goodput <= 0 {
				t.Fatalf("goodput %.2f Mbps", goodput)
			}
			t.Logf("%.2f Mbps, mptcp=%v, fallback %q", goodput, conn.MPTCPActive(), fallback)
		})
	}
}
