package experiments

import (
	"fmt"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/trace"
)

// Figure 7: probability density function of the application-level delay of
// 8 KB blocks with a 200 KB buffer over the WiFi + 3G scenario, for
// MPTCP+M1,2, regular MPTCP and single-path TCP on either interface.

func init() {
	Register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7 — application-level latency PDF (8KB blocks, 200KB buffer)",
		Run:   runFig7,
	})
}

func runFig7(opt Options) (*Result, error) {
	const buf = 200 << 10
	win := wifi3GWindow
	if opt.Quick {
		win = wifi3GQuickWindow
	}
	duration, warmup := win.duration, win.warmup

	variants := []variant{
		{"MPTCP+M1,2", mptcpM12, 0},
		{"Regular MPTCP", regularMPTCP, 0},
		{"TCP over WiFi", tcpBaseline, 0},
		{"TCP over 3G", tcpBaseline, 1},
	}

	summary := NewTable("Application delay of 8KB blocks (ms)",
		"variant", "mean", "p50", "p95", "max", "blocks")
	var pdfs []*Table
	var series []Series

	results, err := SweepWorkers(len(variants), 0, func(i int) (BulkResult, error) {
		v := variants[i]
		return runBulk(BulkOptions{
			Seed:        opt.Seed + 77,
			Specs:       netem.WiFi3GSpec(),
			Client:      v.cfg(buf),
			Server:      v.cfg(buf),
			ClientIface: v.iface,
			Duration:    duration,
			Warmup:      warmup,
			BlockSize:   8 << 10,
		}, opt, pointName("fig7", i))
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		h := results[i].AppDelay
		if h == nil || h.Total() == 0 {
			summary.AddRow(v.name, "-", "-", "-", "-", "0")
			continue
		}
		summary.AddRow(v.name,
			fmt.Sprintf("%.1f", h.Mean()),
			fmt.Sprintf("%.1f", percentileFromHistogram(h, 0.50)),
			fmt.Sprintf("%.1f", percentileFromHistogram(h, 0.95)),
			fmt.Sprintf("%.1f", h.Max()),
			fmt.Sprintf("%d", h.Total()))

		pdf := NewTable(fmt.Sprintf("PDF of app-delay — %s (10ms bins)", v.name), "delay bin (ms)", "fraction %")
		var binX, binY []float64
		for _, b := range h.PDF() {
			pdf.AddRow(fmt.Sprintf("%.0f-%.0f", b.Low, b.Low+h.BinWidth), fmt.Sprintf("%.1f", b.Fraction*100))
			binX = append(binX, b.Low)
			binY = append(binY, b.Fraction)
		}
		pdfs = append(pdfs, pdf)
		series = append(series, Series{Name: "app-delay PDF " + v.name, Unit: "fraction", XLabel: "delay ms (bin low)", X: binX, Y: binY})
	}
	summary.AddNote("paper: M1,2 avoid the long delay tail of regular MPTCP; TCP over WiFi is counter-intuitively slower than MPTCP+M1,2 because 200KB over-buffers its send queue")
	summary.AddNote("duration %v, warmup %v", duration, warmup)
	return &Result{Tables: append([]*Table{summary}, pdfs...), Series: series}, nil
}

// percentileFromHistogram approximates a percentile from histogram bins.
func percentileFromHistogram(h *trace.Histogram, q float64) float64 {
	cum := 0.0
	for _, b := range h.PDF() {
		cum += b.Fraction
		if cum >= q {
			return b.Low + h.BinWidth/2
		}
	}
	return h.Max()
}
