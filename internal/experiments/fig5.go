package experiments

import "fmt"

// fig5Report renders Figure 5: sender and receiver memory against the
// configured maximum receive buffer, one column per variant.
func fig5Report(sw *bufferSweep, buffers []int, results [][]BulkResult) *Result {
	kb := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	res := &Result{}
	res.AddTable(sweepTable(sw, "Sender memory (mean KB) vs configured receive buffer",
		"paper: TCP/WiFi uses the least memory, TCP/3G more, MPTCP up to ~500KB; capping (M4) roughly halves MPTCP's usage at large configured buffers",
		buffers, results, func(b BulkResult) string { return kb(b.SenderMemMeanKB) }))
	res.AddTable(sweepTable(sw, "Receiver memory (mean KB) vs configured receive buffer",
		"paper: receiver memory for MPTCP is at least ~2/3 of the sender's because of multipath reordering; single-path TCP receivers stay near zero",
		buffers, results, func(b BulkResult) string { return kb(b.ReceiverMemMeanKB) }))
	for c, v := range sw.variants {
		res.AddSeries(sweepSeries("sender mem "+v.name, "KB", buffers, results, c, func(b BulkResult) float64 { return b.SenderMemMeanKB }))
		res.AddSeries(sweepSeries("receiver mem "+v.name, "KB", buffers, results, c, func(b BulkResult) float64 { return b.ReceiverMemMeanKB }))
	}
	return res
}
