package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/trace"
)

// Figure 10: connection-establishment latency — the time the server spends
// between receiving a SYN and sending the SYN/ACK — for regular TCP and for
// MPTCP with 0, 100 and 1000 already-established connections. The MPTCP cost
// is dominated by generating the local key and verifying that its token is
// unique among established connections (§5.2); this experiment measures the
// actual wall-clock time of that code path in this implementation.

func init() {
	Register(Experiment{
		ID:    "fig10",
		Title: "Fig. 10 — connection establishment latency (SYN to SYN/ACK processing)",
		Run:   runFig10,
	})
}

func runFig10(opt Options) (*Result, error) {
	attempts := 20000
	if opt.Quick {
		attempts = 2000
	}
	rng := sim.NewRNG(opt.Seed)

	summary := NewTable("SYN processing cost (wall-clock, this machine)",
		"configuration", "mean (µs)", "p50 (µs)", "p95 (µs)", "attempts")
	var pdfs []*Table
	meanSeries := Series{Name: "mean SYN processing cost", Unit: "µs", XLabel: "configuration index"}

	configs := []struct {
		name     string
		existing int
		mptcp    bool
	}{
		{"regular TCP", 0, false},
		{"MPTCP", 0, true},
		{"MPTCP - 100 conn", 100, true},
		{"MPTCP - 1000 conn", 1000, true},
	}

	for _, cfgCase := range configs {
		hist := trace.NewHistogram(1) // 1 µs bins, as in the figure
		var samples []float64

		table := core.NewTokenTable()
		for i := 0; i < cfgCase.existing; i++ {
			key, token := table.GenerateUniqueKey(rng)
			table.Insert(token, nil)
			_ = key
		}

		for i := 0; i < attempts; i++ {
			start := time.Now()
			if cfgCase.mptcp {
				// Server-side MP_CAPABLE processing: hash the client's key
				// (token + IDSN), generate a server key and verify its token
				// is unique among established connections.
				clientKey := core.GenerateKey(rng)
				_ = clientKey.Token()
				_ = clientKey.IDSN()
				serverKey, _ := table.GenerateUniqueKey(rng)
				_ = serverKey.IDSN()
			} else {
				// Regular TCP: the passive opener only has to pick an ISN.
				_ = rng.Uint32()
			}
			elapsed := time.Since(start)
			us := float64(elapsed) / float64(time.Microsecond)
			hist.Add(us)
			samples = append(samples, us)
		}

		summary.AddRow(cfgCase.name,
			fmt.Sprintf("%.2f", trace.Mean(samples)),
			fmt.Sprintf("%.2f", trace.Percentile(samples, 50)),
			fmt.Sprintf("%.2f", trace.Percentile(samples, 95)),
			fmt.Sprintf("%d", attempts))
		meanSeries.X = append(meanSeries.X, float64(len(meanSeries.Y)))
		meanSeries.Y = append(meanSeries.Y, trace.Mean(samples))

		pdf := NewTable(fmt.Sprintf("PDF of SYN processing delay — %s (1µs bins)", cfgCase.name), "delay (µs)", "fraction %")
		for _, b := range hist.PDF() {
			if b.Fraction < 0.005 {
				continue
			}
			pdf.AddRow(fmt.Sprintf("%.0f", b.Low), fmt.Sprintf("%.1f", b.Fraction*100))
		}
		pdfs = append(pdfs, pdf)
	}
	summary.AddNote("paper (2006-era Xeon): regular TCP ~6µs, first MPTCP connection 10-11µs, growing with 100/1000 established connections because of the token-uniqueness scan")
	summary.AddNote("absolute numbers differ on modern hardware; the reproduced claim is the ordering TCP < MPTCP < MPTCP+many-connections and its cause (SHA-1 hashing plus the uniqueness check)")
	return &Result{Tables: append([]*Table{summary}, pdfs...), Series: []Series{meanSeries}}, nil
}
