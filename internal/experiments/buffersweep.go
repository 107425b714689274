package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// The buffer-sweep figures of §4 (Figs. 4, 5, 6a–c and 9) are one
// experiment repeated: a two-host bulk transfer per send/receive buffer size
// × MPTCP variant. Each is an entry of bufferSweeps, run by
// (*bufferSweep).run; only output that one figure alone prints (fig4's
// goodput-vs-throughput table, fig5's memory tables) is code of its own.

// variant is one curve of a figure: a connection configuration per buffer
// size and the client interface the first subflow (or the single-path TCP
// connection) is dialed from.
type variant struct {
	name  string
	cfg   func(buf int) core.Config
	iface int
}

// window is a bulk run's measurement window: the simulated run length and
// the warmup excluded from every measurement.
type window struct{ duration, warmup time.Duration }

// The WiFi + 3G runs (Figs. 4, 5, 7 and 9) share their windows.
var (
	wifi3GWindow      = window{40 * time.Second, 10 * time.Second}
	wifi3GQuickWindow = window{12 * time.Second, 4 * time.Second}
)

// bufferSweep is one buffer-sweep figure.
type bufferSweep struct {
	id, title string
	specs     func() []netem.PathSpec
	// boxes builds the middlebox chains per path index; it runs once per
	// point, since boxes are stateful.
	boxes func() map[int][]netem.Box

	buffers, quickBuffers []int // bytes
	window, quickWindow   window
	// seedStep makes a point's seed opt.Seed + buf*seedStep.
	seedStep uint64

	variants []variant
	rowLabel func(buf int) string
	// table, header and note are the goodput table's title, first column
	// and note.
	table, header, note string

	// memory samples sender and receiver memory every 50 ms (fig5).
	memory bool
	// report renders the results[buffer][variant] grid; nil is
	// goodputReport.
	report func(sw *bufferSweep, buffers []int, results [][]BulkResult) *Result
}

// Figs. 4 and 5 sweep the same buffers.
var (
	wifi3GBuffers      = []int{50 << 10, 100 << 10, 200 << 10, 300 << 10, 400 << 10, 600 << 10, 800 << 10, 1000 << 10}
	wifi3GQuickBuffers = []int{100 << 10, 200 << 10, 400 << 10}
)

var bufferSweeps = []bufferSweep{
	{
		// WiFi (8 Mbps / 20 ms RTT / 80 ms buffer) + 3G (2 Mbps / 150 ms RTT /
		// 2 s buffer): regular MPTCP, opportunistic retransmission (M1) and M1
		// + penalization (M2) against TCP on either path alone.
		id: "fig4", title: "Fig. 4 — receive-buffer impact on throughput (WiFi + 3G)",
		specs:   netem.WiFi3GSpec,
		buffers: wifi3GBuffers, quickBuffers: wifi3GQuickBuffers,
		window: wifi3GWindow, quickWindow: wifi3GQuickWindow,
		seedStep: 1,
		variants: []variant{
			{"TCP over WiFi", tcpBaseline, 0},
			{"TCP over 3G", tcpBaseline, 1},
			{"Regular MPTCP", regularMPTCP, 0},
			{"MPTCP+M1", mptcpM1, 0},
			{"MPTCP+M1,2", mptcpM12, 0},
		},
		rowLabel: kbLabel,
		table:    "Throughput (Mbps) vs receive window", header: "rcv/snd buffer",
		note:   "paper: regular MPTCP underperforms TCP-over-WiFi below ~400KB; MPTCP+M1,2 matches or exceeds it at every buffer size",
		report: fig4Report,
	},
	{
		// Memory with buffer autotuning (M3), with and without cwnd capping
		// (M4). The TCP baselines keep fixed buffers of the configured size:
		// M3 is connection-level and does not apply to plain TCP.
		id: "fig5", title: "Fig. 5 — receive-buffer impact on memory use (WiFi + 3G)",
		specs:   netem.WiFi3GSpec,
		buffers: wifi3GBuffers, quickBuffers: wifi3GQuickBuffers,
		window: wifi3GWindow, quickWindow: wifi3GQuickWindow,
		seedStep: 7,
		variants: []variant{
			{"MPTCP+M1,2,3,4", mptcpM1234, 0},
			{"MPTCP+M1,2,3", mptcpM123, 0},
			{"TCP over WiFi", tcpBaseline, 0},
			{"TCP over 3G", tcpBaseline, 1},
		},
		rowLabel: kbLabel,
		header:   "max buffer",
		memory:   true,
		report:   fig5Report,
	},
	{
		id: "fig6a", title: "Fig. 6(a) — WiFi + very slow lossy 3G",
		specs:   netem.LossyWiFi3GSpec,
		buffers: []int{100 << 10, 200 << 10, 400 << 10, 800 << 10, 1500 << 10, 2000 << 10}, quickBuffers: []int{200 << 10, 800 << 10},
		window: window{40 * time.Second, 10 * time.Second}, quickWindow: window{15 * time.Second, 5 * time.Second},
		seedStep: 13,
		variants: []variant{
			{"MPTCP+M1,2", mptcpM12, 0},
			{"Regular MPTCP", regularMPTCP, 0},
			{"TCP over WiFi", tcpBaseline, 0},
			{"TCP over 3G", tcpBaseline, 1},
		},
		rowLabel: mbLabel,
		table:    "Fig. 6(a): goodput (Mbps) vs rcv/snd buffer", header: "buffer",
		note: "paper: with ~200KB buffers the mechanisms give a roughly tenfold improvement over regular MPTCP, which stalls behind the lossy deeply-buffered 3G path",
	},
	{
		id: "fig6b", title: "Fig. 6(b) — 1 Gbps + 100 Mbps links",
		specs:   netem.AsymGigabitSpec,
		buffers: []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}, quickBuffers: []int{512 << 10, 2 << 20},
		window: window{4 * time.Second, time.Second}, quickWindow: window{2 * time.Second, 500 * time.Millisecond},
		seedStep: 13,
		variants: []variant{
			{"MPTCP+M1,2", mptcpM12, 0},
			{"Regular MPTCP", regularMPTCP, 0},
			{"TCP over 1Gbps itf", tcpBaseline, 0},
			{"TCP over 100Mbps itf", tcpBaseline, 1},
		},
		rowLabel: mbLabel,
		table:    "Fig. 6(b): goodput (Mbps) vs rcv/snd buffer", header: "buffer",
		note: "paper: MPTCP+M1,2 uses both links with ~250KB of memory; regular MPTCP underperforms TCP over the 1 Gbps link until the buffer reaches ~2MB",
	},
	{
		id: "fig6c", title: "Fig. 6(c) — three 1 Gbps links",
		specs:   netem.TripleGigabitSpec,
		buffers: []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}, quickBuffers: []int{1 << 20, 4 << 20},
		window: window{4 * time.Second, time.Second}, quickWindow: window{2 * time.Second, 500 * time.Millisecond},
		seedStep: 13,
		variants: []variant{
			{"MPTCP+M1,2", mptcpM12, 0},
			{"Regular MPTCP", regularMPTCP, 0},
			{"TCP over 1Gbps itf", tcpBaseline, 0},
		},
		rowLabel: mbLabel,
		table:    "Fig. 6(c): goodput (Mbps) vs rcv/snd buffer", header: "buffer",
		note: "paper: with symmetric links both MPTCP variants perform equally well regardless of buffer size (using the fastest path is optimal when underbuffered)",
	},
	{
		// A "real" commercial 3G network (≈2 Mbps, deep buffers, middleboxes)
		// and a WiFi access point capped at 2 Mbps, emulated; a NAT and a
		// proactive-ACKing proxy on the 3G path stand in for the operator's
		// middleboxes (the paper notes MPTCP worked through them).
		id: "fig9", title: "Fig. 9 — MPTCP over (emulated) real 3G and capped WiFi",
		specs: netem.Capped3GWiFiSpec,
		boxes: func() map[int][]netem.Box {
			return map[int][]netem.Box{1: {
				middlebox.NewNAT(packet.MakeAddr(100, 64, 0, 1), true),
				middlebox.NewProactiveACKer(),
			}}
		},
		buffers: []int{50 << 10, 100 << 10, 200 << 10, 500 << 10}, quickBuffers: []int{50 << 10, 100 << 10, 200 << 10, 500 << 10},
		window: wifi3GWindow, quickWindow: wifi3GQuickWindow,
		seedStep: 3,
		variants: []variant{
			{"MPTCP", mptcpM12, 0},
			{"TCP over WiFi", tcpBaseline, 0},
			{"TCP over 3G", tcpBaseline, 1},
		},
		rowLabel: kbLabel,
		table:    "Goodput (Mbps) vs rcv/snd buffer (2 Mbps WiFi + 2 Mbps 3G)", header: "buffer",
		note: "paper: MPTCP never underperforms TCP; at 500KB it reaches almost double the goodput of either path, at 100KB it is ~25% ahead",
	},
}

func init() {
	for i := range bufferSweeps {
		sw := &bufferSweeps[i]
		Register(Experiment{ID: sw.id, Title: sw.title, Run: sw.run})
	}
}

func kbLabel(buf int) string { return fmt.Sprintf("%dKB", buf>>10) }
func mbLabel(buf int) string { return fmt.Sprintf("%.2fMB", float64(buf)/(1<<20)) }

// run sweeps every buffer × variant point in parallel and renders the grid.
func (sw *bufferSweep) run(opt Options) (*Result, error) {
	buffers, win := sw.buffers, sw.window
	if opt.Quick {
		buffers, win = sw.quickBuffers, sw.quickWindow
	}
	results, err := sweepGrid(sw.id, len(buffers), len(sw.variants), func(r, c int, name string) (BulkResult, error) {
		buf, v := buffers[r], sw.variants[c]
		bo := BulkOptions{
			Seed:           opt.Seed + uint64(buf)*sw.seedStep,
			Specs:          sw.specs(),
			Config:         v.cfg(buf),
			ClientIface:    v.iface,
			Duration:       win.duration,
			Warmup:         win.warmup,
			MemorySampling: sw.memory,
		}
		if sw.boxes != nil {
			bo.Boxes = sw.boxes()
		}
		return runBulk(bo, opt, name)
	})
	if err != nil {
		return nil, err
	}
	report := sw.report
	if report == nil {
		report = goodputReport
	}
	return report(sw, buffers, results), nil
}

// goodputReport is the goodput table (one row per buffer, one column per
// variant) and one goodput-vs-buffer series per variant.
func goodputReport(sw *bufferSweep, buffers []int, results [][]BulkResult) *Result {
	res := &Result{}
	res.AddTable(sweepTable(sw, sw.table, sw.note, buffers, results, func(b BulkResult) string { return fmtMbps(b.GoodputMbps) }))
	for c, v := range sw.variants {
		res.AddSeries(sweepSeries(v.name, "Mbps", buffers, results, c, func(b BulkResult) float64 { return b.GoodputMbps }))
	}
	return res
}

// sweepTable renders one cell per point of the grid.
func sweepTable(sw *bufferSweep, title, note string, buffers []int, results [][]BulkResult, cell func(BulkResult) string) *Table {
	cols := []string{sw.header}
	for _, v := range sw.variants {
		cols = append(cols, v.name)
	}
	t := NewTable(title, cols...)
	for r, buf := range buffers {
		row := []string{sw.rowLabel(buf)}
		for _, res := range results[r] {
			row = append(row, cell(res))
		}
		t.AddRow(row...)
	}
	t.AddNote("%s", note)
	return t
}

// sweepSeries is variant c's values against the buffer size in KB.
func sweepSeries(name, unit string, buffers []int, results [][]BulkResult, c int, y func(BulkResult) float64) Series {
	s := Series{Name: name, Unit: unit, XLabel: "buffer KB", X: make([]float64, len(buffers)), Y: make([]float64, len(buffers))}
	for r, buf := range buffers {
		s.X[r] = float64(buf >> 10)
		s.Y[r] = y(results[r][c])
	}
	return s
}

// fig4Report adds the goodput-vs-throughput table of MPTCP+M1, whose gap is
// the cost of opportunistic retransmission.
func fig4Report(sw *bufferSweep, buffers []int, results [][]BulkResult) *Result {
	res := goodputReport(sw, buffers, results)
	t := NewTable("Goodput vs throughput for MPTCP+M1 (opportunistic retransmission overhead)",
		sw.header, "goodput Mbps", "throughput Mbps")
	for c, v := range sw.variants {
		if v.name != "MPTCP+M1" {
			continue
		}
		for r, buf := range buffers {
			t.AddRow(sw.rowLabel(buf), fmtMbps(results[r][c].GoodputMbps), fmtMbps(results[r][c].ThroughputMbps))
		}
	}
	res.AddTable(t)
	return res
}
