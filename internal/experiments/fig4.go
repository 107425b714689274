package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
)

// Figure 4: throughput as a function of the receive window over the emulated
// WiFi (8 Mbps / 20 ms RTT / 80 ms buffer) + 3G (2 Mbps / 150 ms RTT / 2 s
// buffer) phone scenario, for regular MPTCP, MPTCP with opportunistic
// retransmission (M1) and MPTCP with M1 + penalization (M2), against TCP on
// either path alone.

func init() {
	Register(Experiment{
		ID:    "fig4",
		Title: "Fig. 4 — receive-buffer impact on throughput (WiFi + 3G)",
		Run:   runFig4,
	})
}

// fig4Buffers returns the receive/send buffer sweep in bytes.
func fig4Buffers(quick bool) []int {
	if quick {
		return []int{100 << 10, 200 << 10, 400 << 10}
	}
	return []int{50 << 10, 100 << 10, 200 << 10, 300 << 10, 400 << 10, 600 << 10, 800 << 10, 1000 << 10}
}

func fig4Duration(quick bool) (time.Duration, time.Duration) {
	if quick {
		return 12 * time.Second, 4 * time.Second
	}
	return 40 * time.Second, 10 * time.Second
}

// fig4Variant is one curve of the figure.
type fig4Variant struct {
	name    string
	cfg     func(buf int) core.Config
	iface   int
	goodput bool
}

func fig4Variants() []fig4Variant {
	return []fig4Variant{
		{name: "TCP over WiFi", cfg: tcpBaseline, iface: 0},
		{name: "TCP over 3G", cfg: tcpBaseline, iface: 1},
		{name: "Regular MPTCP", cfg: regularMPTCP, iface: 0},
		{name: "MPTCP+M1", cfg: mptcpM1, iface: 0},
		{name: "MPTCP+M1,2", cfg: mptcpM12, iface: 0},
	}
}

func runFig4(opt Options) (*Result, error) {
	duration, warmup := fig4Duration(opt.Quick)
	buffers := fig4Buffers(opt.Quick)

	table := NewTable("Throughput (Mbps) vs receive window",
		append([]string{"rcv/snd buffer"}, variantNames(fig4Variants())...)...)
	goodputTable := NewTable("Goodput vs throughput for MPTCP+M1 (opportunistic retransmission overhead)",
		"rcv/snd buffer", "goodput Mbps", "throughput Mbps")

	variants := fig4Variants()
	results, err := sweepGrid("fig4", len(buffers), len(variants), func(r, c int, name string) (BulkResult, error) {
		buf, v := buffers[r], variants[c]
		return runBulk(BulkOptions{
			Seed:        opt.Seed + uint64(buf),
			Specs:       netem.WiFi3GSpec(),
			Client:      v.cfg(buf),
			Server:      v.cfg(buf),
			ClientIface: v.iface,
			Duration:    duration,
			Warmup:      warmup,
		}, opt, name)
	})
	if err != nil {
		return nil, err
	}
	for r, buf := range buffers {
		row := []string{fmt.Sprintf("%dKB", buf>>10)}
		for c, v := range variants {
			res := results[r][c]
			row = append(row, fmtMbps(res.GoodputMbps))
			if v.name == "MPTCP+M1" {
				goodputTable.AddRow(fmt.Sprintf("%dKB", buf>>10), fmtMbps(res.GoodputMbps), fmtMbps(res.ThroughputMbps))
			}
		}
		table.AddRow(row...)
	}
	table.AddNote("paper: regular MPTCP underperforms TCP-over-WiFi below ~400KB; MPTCP+M1,2 matches or exceeds it at every buffer size")
	res := &Result{Tables: []*Table{table, goodputTable}}
	for _, s := range goodputSeries(buffers, variants, results) {
		res.AddSeries(s)
	}
	return res, nil
}

// goodputSeries extracts one goodput-vs-buffer series per variant from a
// buffers × variants BulkResult grid (shared by figures 4, 6 and 9).
func goodputSeries(buffers []int, variants []fig4Variant, results [][]BulkResult) []Series {
	x := make([]float64, len(buffers))
	for i, buf := range buffers {
		x[i] = float64(buf >> 10)
	}
	out := make([]Series, len(variants))
	for c, v := range variants {
		y := make([]float64, len(buffers))
		for r := range buffers {
			y[r] = results[r][c].GoodputMbps
		}
		out[c] = Series{Name: v.name, Unit: "Mbps", XLabel: "buffer KB", X: x, Y: y}
	}
	return out
}

func variantNames(vs []fig4Variant) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.name
	}
	return names
}
