package experiments

import (
	"fmt"

	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// Figure 9: goodput over a "real" commercial 3G network (≈2 Mbps achievable,
// deep buffers, NAT and other middleboxes on path) and a WiFi access point
// capped at 2 Mbps, as a function of the send/receive buffer size. The real
// networks are replaced by their emulated equivalents, with a NAT and a
// proactive-ACKing proxy installed on the 3G path to stand in for the
// operator's middleboxes (the paper notes MPTCP worked through them).

func init() {
	Register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9 — MPTCP over (emulated) real 3G and capped WiFi",
		Run:   runFig9,
	})
}

func runFig9(opt Options) (*Result, error) {
	buffers := []int{50 << 10, 100 << 10, 200 << 10, 500 << 10}
	duration, warmup := fig4Duration(opt.Quick)

	variants := []fig4Variant{
		{name: "MPTCP", cfg: mptcpM12, iface: 0},
		{name: "TCP over WiFi", cfg: tcpBaseline, iface: 0},
		{name: "TCP over 3G", cfg: tcpBaseline, iface: 1},
	}
	table := NewTable("Goodput (Mbps) vs rcv/snd buffer (2 Mbps WiFi + 2 Mbps 3G)",
		append([]string{"buffer"}, variantNames(variants)...)...)

	results, err := sweepGrid("fig9", len(buffers), len(variants), func(r, c int, name string) (BulkResult, error) {
		buf, v := buffers[r], variants[c]
		// The 3G path (index 1) carries the operator's middleboxes; they are
		// stateful, so each sweep point builds its own chain.
		boxes := map[int][]netem.Box{
			1: {
				middlebox.NewNAT(packet.MakeAddr(100, 64, 0, 1), true),
				middlebox.NewProactiveACKer(),
			},
		}
		return runBulk(BulkOptions{
			Seed:        opt.Seed + uint64(buf)*3,
			Specs:       netem.Capped3GWiFiSpec(),
			Boxes:       boxes,
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
		for c := range variants {
			row = append(row, fmtMbps(results[r][c].GoodputMbps))
		}
		table.AddRow(row...)
	}
	table.AddNote("paper: MPTCP never underperforms TCP; at 500KB it reaches almost double the goodput of either path, at 100KB it is ~25%% ahead")
	res := &Result{Tables: []*Table{table}}
	for _, s := range goodputSeries(buffers, variants, results) {
		res.AddSeries(s)
	}
	return res, nil
}
