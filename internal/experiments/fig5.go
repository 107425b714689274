package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/netem"
)

// Figure 5: sender and receiver memory consumption as a function of the
// configured maximum receive buffer, with buffer autotuning (Mechanism 3) and
// with/without congestion-window capping (Mechanism 4), compared to
// single-path TCP over WiFi and over 3G.

func init() {
	Register(Experiment{
		ID:    "fig5",
		Title: "Fig. 5 — receive-buffer impact on memory use (WiFi + 3G)",
		Run:   runFig5,
	})
}

func runFig5(opt Options) (*Result, error) {
	buffers := fig4Buffers(opt.Quick)
	duration, warmup := fig4Duration(opt.Quick)

	variants := []fig4Variant{
		{name: "MPTCP+M1,2,3,4", cfg: mptcpM1234, iface: 0},
		{name: "MPTCP+M1,2,3", cfg: mptcpM123, iface: 0},
		{name: "TCP over WiFi", cfg: tcpBaseline, iface: 0},
		{name: "TCP over 3G", cfg: tcpBaseline, iface: 1},
	}

	sender := NewTable("Sender memory (mean KB) vs configured receive buffer",
		append([]string{"max buffer"}, variantNames(variants)...)...)
	receiver := NewTable("Receiver memory (mean KB) vs configured receive buffer",
		append([]string{"max buffer"}, variantNames(variants)...)...)

	results, err := sweepGrid("fig5", len(buffers), len(variants), func(r, c int, name string) (BulkResult, error) {
		buf, v := buffers[r], variants[c]
		// The single-path TCP baselines run with fixed buffers of the
		// configured size: Mechanism 3 is connection-level and does not apply
		// to a plain-TCP connection.
		cfg := v.cfg(buf)
		return runBulk(BulkOptions{
			Seed:           opt.Seed + uint64(buf)*7,
			Specs:          netem.WiFi3GSpec(),
			Client:         cfg,
			Server:         cfg,
			ClientIface:    v.iface,
			Duration:       duration,
			Warmup:         warmup,
			MemorySampling: true,
			SampleInterval: 50 * time.Millisecond,
		}, opt, name)
	})
	if err != nil {
		return nil, err
	}
	for r, buf := range buffers {
		srow := []string{fmt.Sprintf("%dKB", buf>>10)}
		rrow := []string{fmt.Sprintf("%dKB", buf>>10)}
		for c := range variants {
			res := results[r][c]
			srow = append(srow, fmt.Sprintf("%.0f", res.SenderMemMeanKB))
			rrow = append(rrow, fmt.Sprintf("%.0f", res.ReceiverMemMeanKB))
		}
		sender.AddRow(srow...)
		receiver.AddRow(rrow...)
	}
	sender.AddNote("paper: TCP/WiFi uses the least memory, TCP/3G more, MPTCP up to ~500KB; capping (M4) roughly halves MPTCP's usage at large configured buffers")
	receiver.AddNote("paper: receiver memory for MPTCP is at least ~2/3 of the sender's because of multipath reordering; single-path TCP receivers stay near zero")
	res := &Result{Tables: []*Table{sender, receiver}}
	x := make([]float64, len(buffers))
	for i, buf := range buffers {
		x[i] = float64(buf >> 10)
	}
	for c, v := range variants {
		snd := make([]float64, len(buffers))
		rcv := make([]float64, len(buffers))
		for r := range buffers {
			snd[r] = results[r][c].SenderMemMeanKB
			rcv[r] = results[r][c].ReceiverMemMeanKB
		}
		res.AddSeries(Series{Name: "sender mem " + v.name, Unit: "KB", XLabel: "buffer KB", X: x, Y: snd})
		res.AddSeries(Series{Name: "receiver mem " + v.name, Unit: "KB", XLabel: "buffer KB", X: x, Y: rcv})
	}
	return res, nil
}
