package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/netem"
)

// Figure 8: receiver cost of the out-of-order reassembly algorithms
// (Regular, Tree, Shortcuts, AllShortcuts) for a long download over two
// 1 Gbps links with 2 and with 8 subflows. CPU utilization on the paper's
// testbed is proxied here by the number of reassembly search steps per
// received segment inside the simulation, complemented by the wall-clock
// micro-benchmarks of the same four algorithms in bench_test.go
// (BenchmarkOfo*).

func init() {
	Register(Experiment{
		ID:    "fig8",
		Title: "Fig. 8 — out-of-order receive algorithms (2 and 8 subflows)",
		Run:   runFig8,
	})
}

func runFig8(opt Options) (*Result, error) {
	duration := 3 * time.Second
	warmup := 500 * time.Millisecond
	if opt.Quick {
		duration = 1200 * time.Millisecond
		warmup = 300 * time.Millisecond
	}

	table := NewTable("Reassembly cost per received segment (search steps; lower is cheaper)",
		"algorithm", "2 subflows", "8 subflows", "goodput 2sf (Mbps)", "goodput 8sf (Mbps)")

	algs := buffer.Algorithms()
	perIfaces := []int{1, 4} // 2 paths × {1,4} = 2 and 8 subflows
	results, err := sweepGrid("fig8", len(algs), len(perIfaces), func(r, c int, name string) (BulkResult, error) {
		cfg := mptcpM12(4 << 20)
		cfg.OfoAlgorithm = algs[r]
		cfg.SubflowsPerInterface = perIfaces[c]
		return runBulk(BulkOptions{
			Seed:     opt.Seed + uint64(algs[r])*31 + uint64(perIfaces[c]),
			Specs:    netem.DualGigabitSpec(),
			Config:   cfg,
			Duration: duration,
			Warmup:   warmup,
		}, opt, name)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	subflowX := []float64{2, 8}
	for r, alg := range algs {
		row := []string{alg.String()}
		var goodputs []string
		steps := make([]float64, len(perIfaces))
		for c := range perIfaces {
			br := results[r][c]
			stepsPerSeg := 0.0
			if br.SegmentsDelivered > 0 {
				stepsPerSeg = float64(br.ReassemblySteps) / float64(br.SegmentsDelivered)
			}
			steps[c] = stepsPerSeg
			row = append(row, fmt.Sprintf("%.2f", stepsPerSeg))
			goodputs = append(goodputs, fmtMbps(br.GoodputMbps))
		}
		row = append(row, goodputs...)
		table.AddRow(row...)
		res.AddSeries(Series{Name: alg.String(), Unit: "steps/segment", XLabel: "subflows", X: subflowX, Y: steps})
	}
	table.AddNote("paper: CPU load drops from Regular to Tree and further with Shortcuts/AllShortcuts; with 8 subflows the gap widens (42%% -> 30%% CPU), with 2 subflows 25%% -> 20%%")
	table.AddNote("wall-clock per-insert costs for the same algorithms: go test -bench BenchmarkOfo")
	res.AddTable(table)
	return res, nil
}
