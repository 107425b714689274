package experiments

import (
	"fmt"
	"math"
	"sort"

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
			Config:      v.cfg(buf),
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
		d := results[i].AppDelayMs
		if len(d) == 0 {
			summary.AddRow(v.name, "-", "-", "-", "-", "0")
			continue
		}
		summary.AddRow(v.name,
			fmt.Sprintf("%.1f", trace.Mean(d)),
			fmt.Sprintf("%.1f", trace.Percentile(d, 50)),
			fmt.Sprintf("%.1f", trace.Percentile(d, 95)),
			fmt.Sprintf("%.1f", trace.Max(d)),
			fmt.Sprintf("%d", len(d)))

		pdf := NewTable(fmt.Sprintf("PDF of app-delay — %s (10ms bins)", v.name), "delay bin (ms)", "fraction %")
		binX, binY := delayPDF(d)
		for j, low := range binX {
			pdf.AddRow(fmt.Sprintf("%.0f-%.0f", low, low+pdfBinMs), fmt.Sprintf("%.1f", binY[j]*100))
		}
		pdfs = append(pdfs, pdf)
		series = append(series, Series{Name: "app-delay PDF " + v.name, Unit: "fraction", XLabel: "delay ms (bin low)", X: binX, Y: binY})
	}
	summary.AddNote("paper: M1,2 avoid the long delay tail of regular MPTCP; TCP over WiFi is counter-intuitively slower than MPTCP+M1,2 because 200KB over-buffers its send queue")
	summary.AddNote("duration %v, warmup %v", duration, warmup)
	return &Result{Tables: append([]*Table{summary}, pdfs...), Series: series}, nil
}

// pdfBinMs is the width of Figure 7's delay bins.
const pdfBinMs = 10

// delayPDF bins delay samples (ms) by ⌊v/pdfBinMs⌋ and returns the non-empty
// bins in ascending order: each bin's lower edge and its share of the samples.
func delayPDF(ms []float64) (lows, fractions []float64) {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	for i := 0; i < len(sorted); {
		bin := math.Floor(sorted[i] / pdfBinMs)
		j := i + 1
		for j < len(sorted) && math.Floor(sorted[j]/pdfBinMs) == bin {
			j++
		}
		lows = append(lows, bin*pdfBinMs)
		fractions = append(fractions, float64(j-i)/float64(len(sorted)))
		i = j
	}
	return lows, fractions
}
