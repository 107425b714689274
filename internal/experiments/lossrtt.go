package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/netem"
)

// Loss-rate × RTT sweep (ROADMAP "scenario breadth"): bulk MPTCP over two
// symmetric 8 Mbps paths versus single-path TCP over one of them, across a
// grid of random-loss rates and base RTTs. MPTCP's coupled controller pools
// the two paths' capacity and rides out loss on either; the sweep quantifies
// how much of that pooling survives as loss and RTT grow.

func init() {
	Register(Experiment{
		ID:    "lossrtt",
		Title: "Loss-rate × RTT sweep — MPTCP pooling vs single-path TCP",
		Run:   runLossRTT,
	})
}

// lossRTTPoint is one grid point: MPTCP and TCP goodput at (loss, rtt).
type lossRTTPoint struct {
	mptcp, tcp float64
}

func runLossRTT(opt Options) (*Result, error) {
	duration := 25 * time.Second
	warmup := 5 * time.Second
	losses := []float64{0, 0.001, 0.01, 0.02, 0.05}
	rtts := []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond}
	if opt.Quick {
		duration = 8 * time.Second
		warmup = 2 * time.Second
		losses = []float64{0, 0.01, 0.05}
		rtts = []time.Duration{20 * time.Millisecond, 160 * time.Millisecond}
	}

	const rateMbps = 8
	pathsFor := func(loss float64, rtt time.Duration, n int) []netem.PathSpec {
		specs := make([]netem.PathSpec, n)
		// Deep 2 s drop-tail queues (the paper's cellular bufferbloat regime)
		// keep slow-start overshoot from ever dropping a packet, so the
		// injected random loss is the only loss the endpoints see and the
		// sweep isolates exactly the (loss, RTT) recovery behaviour.
		queue := int(float64(netem.Mbps(rateMbps)) / 8 * 2.0)
		for i := range specs {
			specs[i] = netem.Symmetric(fmt.Sprintf("p%d", i), netem.Mbps(rateMbps), rtt/2, queue, loss)
		}
		return specs
	}

	// Each sweep index runs two transfers: its files are <name>-mptcp and
	// <name>-tcp.
	results, err := sweepGrid("lossrtt", len(losses), len(rtts), func(r, c int, name string) (lossRTTPoint, error) {
		seed := opt.Seed + uint64(r)*17 + uint64(c)*3
		mp, err := runBulk(BulkOptions{
			Seed:     seed,
			Specs:    pathsFor(losses[r], rtts[c], 2),
			Config:   mptcpM12(1 << 20),
			Duration: duration,
			Warmup:   warmup,
		}, opt, name+"-mptcp")
		if err != nil {
			return lossRTTPoint{}, err
		}
		tcp, err := runBulk(BulkOptions{
			Seed:     seed + 1,
			Specs:    pathsFor(losses[r], rtts[c], 1),
			Config:   tcpBaseline(1 << 20),
			Duration: duration,
			Warmup:   warmup,
		}, opt, name+"-tcp")
		if err != nil {
			return lossRTTPoint{}, err
		}
		return lossRTTPoint{mptcp: mp.GoodputMbps, tcp: tcp.GoodputMbps}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	table := NewTable(
		fmt.Sprintf("goodput over two %d Mbps paths (MPTCP) vs one (TCP)", rateMbps),
		"loss %", "rtt ms", "mptcp Mbps", "tcp Mbps", "pooling ×")
	for r, loss := range losses {
		for c, rtt := range rtts {
			pt := results[r][c]
			ratio := 0.0
			if pt.tcp > 0 {
				ratio = pt.mptcp / pt.tcp
			}
			table.AddRow(fmt.Sprintf("%.1f", loss*100),
				fmt.Sprintf("%.0f", float64(rtt)/float64(time.Millisecond)),
				fmtMbps(pt.mptcp), fmtMbps(pt.tcp), fmt.Sprintf("%.2f", ratio))
		}
	}
	table.AddNote("pooling × = MPTCP goodput over the single-path TCP baseline at the same loss and RTT; 2.0 is perfect capacity pooling of the two paths")
	res.AddTable(table)
	for c, rtt := range rtts {
		y := make([]float64, len(losses))
		x := make([]float64, len(losses))
		for r := range losses {
			x[r] = losses[r] * 100
			y[r] = results[r][c].mptcp
		}
		res.AddSeries(Series{
			Name:   fmt.Sprintf("mptcp rtt=%dms", rtt/time.Millisecond),
			Unit:   "Mbps",
			XLabel: "loss %",
			X:      x,
			Y:      y,
		})
	}
	return res, nil
}
