package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/netem"
)

// Figure 6: goodput as a function of the configured send/receive buffer for
// three scenarios — (a) WiFi plus an extremely slow and lossy 3G path,
// (b) a 1 Gbps and a 100 Mbps link, (c) three symmetric 1 Gbps links —
// comparing MPTCP+M1,2 against regular MPTCP and single-path TCP.

func init() {
	Register(Experiment{ID: "fig6a", Title: "Fig. 6(a) — WiFi + very slow lossy 3G", Run: func(o Options) (*Result, error) { return runFig6(o, "a") }})
	Register(Experiment{ID: "fig6b", Title: "Fig. 6(b) — 1 Gbps + 100 Mbps links", Run: func(o Options) (*Result, error) { return runFig6(o, "b") }})
	Register(Experiment{ID: "fig6c", Title: "Fig. 6(c) — three 1 Gbps links", Run: func(o Options) (*Result, error) { return runFig6(o, "c") }})
}

type fig6Scenario struct {
	specs    []netem.PathSpec
	buffers  []int
	duration time.Duration
	warmup   time.Duration
	variants []fig4Variant
	note     string
}

func fig6Config(which string, quick bool) fig6Scenario {
	switch which {
	case "a":
		sc := fig6Scenario{
			specs:    netem.LossyWiFi3GSpec(),
			buffers:  []int{100 << 10, 200 << 10, 400 << 10, 800 << 10, 1500 << 10, 2000 << 10},
			duration: 40 * time.Second,
			warmup:   10 * time.Second,
			variants: []fig4Variant{
				{name: "MPTCP+M1,2", cfg: mptcpM12, iface: 0},
				{name: "Regular MPTCP", cfg: regularMPTCP, iface: 0},
				{name: "TCP over WiFi", cfg: tcpBaseline, iface: 0},
				{name: "TCP over 3G", cfg: tcpBaseline, iface: 1},
			},
			note: "paper: with ~200KB buffers the mechanisms give a roughly tenfold improvement over regular MPTCP, which stalls behind the lossy deeply-buffered 3G path",
		}
		if quick {
			sc.buffers = []int{200 << 10, 800 << 10}
			sc.duration, sc.warmup = 15*time.Second, 5*time.Second
		}
		return sc
	case "b":
		sc := fig6Scenario{
			specs:    netem.AsymGigabitSpec(),
			buffers:  []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20},
			duration: 4 * time.Second,
			warmup:   1 * time.Second,
			variants: []fig4Variant{
				{name: "MPTCP+M1,2", cfg: mptcpM12, iface: 0},
				{name: "Regular MPTCP", cfg: regularMPTCP, iface: 0},
				{name: "TCP over 1Gbps itf", cfg: tcpBaseline, iface: 0},
				{name: "TCP over 100Mbps itf", cfg: tcpBaseline, iface: 1},
			},
			note: "paper: MPTCP+M1,2 uses both links with ~250KB of memory; regular MPTCP underperforms TCP over the 1 Gbps link until the buffer reaches ~2MB",
		}
		if quick {
			sc.buffers = []int{512 << 10, 2 << 20}
			sc.duration, sc.warmup = 2*time.Second, 500*time.Millisecond
		}
		return sc
	default: // "c"
		sc := fig6Scenario{
			specs:    netem.TripleGigabitSpec(),
			buffers:  []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20},
			duration: 4 * time.Second,
			warmup:   1 * time.Second,
			variants: []fig4Variant{
				{name: "MPTCP+M1,2", cfg: mptcpM12, iface: 0},
				{name: "Regular MPTCP", cfg: regularMPTCP, iface: 0},
				{name: "TCP over 1Gbps itf", cfg: tcpBaseline, iface: 0},
			},
			note: "paper: with symmetric links both MPTCP variants perform equally well regardless of buffer size (using the fastest path is optimal when underbuffered)",
		}
		if quick {
			sc.buffers = []int{1 << 20, 4 << 20}
			sc.duration, sc.warmup = 2*time.Second, 500*time.Millisecond
		}
		return sc
	}
}

func runFig6(opt Options, which string) (*Result, error) {
	sc := fig6Config(which, opt.Quick)
	table := NewTable(fmt.Sprintf("Fig. 6(%s): goodput (Mbps) vs rcv/snd buffer", which),
		append([]string{"buffer"}, variantNames(sc.variants)...)...)
	results, err := sweepGrid("fig6"+which, len(sc.buffers), len(sc.variants), func(r, c int, name string) (BulkResult, error) {
		buf, v := sc.buffers[r], sc.variants[c]
		return runBulk(BulkOptions{
			Seed:        opt.Seed + uint64(buf)*13,
			Specs:       sc.specs,
			Client:      v.cfg(buf),
			Server:      v.cfg(buf),
			ClientIface: v.iface,
			Duration:    sc.duration,
			Warmup:      sc.warmup,
		}, opt, name)
	})
	if err != nil {
		return nil, err
	}
	for r, buf := range sc.buffers {
		row := []string{fmt.Sprintf("%.2fMB", float64(buf)/(1<<20))}
		for c := range sc.variants {
			row = append(row, fmtMbps(results[r][c].GoodputMbps))
		}
		table.AddRow(row...)
	}
	table.AddNote("%s", sc.note)
	res := &Result{Tables: []*Table{table}}
	for _, s := range goodputSeries(sc.buffers, sc.variants, results) {
		res.AddSeries(s)
	}
	return res, nil
}
