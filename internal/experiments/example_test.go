package experiments_test

import (
	"fmt"
	"log"

	"mptcpgo/internal/experiments"
)

// ExampleRunFig11Point runs single points of Figure 11's dual-gigabit HTTP
// scenario: 40 closed-loop clients fetch 150 KB objects over regular TCP on
// one link, over TCP on two bonded links and over MPTCP on both links. The
// whole sweep is `mptcpbench -run fig11`; add -pcap-dir or -trace-dir there
// for a point's wire capture or flight recorder.
func ExampleRunFig11Point() {
	const clients, requests, size = 40, 400, 150 << 10
	fmt.Printf("HTTP over two 1 Gbps links: %d clients, %d requests, %d KB objects\n",
		clients, requests, size>>10)
	for _, mode := range []string{"tcp", "bonding", "mptcp"} {
		res, err := experiments.RunFig11Point(99, mode, size, clients, requests, experiments.Options{}, "")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %5.0f req/s   mean latency %v   p95 %v   (%d completed, %d failed)\n",
			mode, res.RequestsPerSec, res.MeanLatency, res.P95Latency, res.Completed, res.Failed)
	}
	// Output:
	// HTTP over two 1 Gbps links: 40 clients, 400 requests, 150 KB objects
	//   tcp        704 req/s   mean latency 28.569392ms   p95 73.911324ms   (400 completed, 0 failed)
	//   bonding   1277 req/s   mean latency 27.580538ms   p95 217.832594ms   (400 completed, 0 failed)
	//   mptcp      732 req/s   mean latency 24.069232ms   p95 56.517504ms   (400 completed, 0 failed)
}
