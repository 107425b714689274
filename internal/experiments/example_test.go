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
// for a point's wire capture or flight recorder. The latencies are those of
// the completed requests only: the second line of each mode counts the
// requests still in flight when the last counted one completed.
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
		fmt.Printf("           %d still in flight at the %dth, the oldest for %v\n",
			res.Unfinished, requests, res.OldestUnfinished)
	}
	// Output:
	// HTTP over two 1 Gbps links: 40 clients, 400 requests, 150 KB objects
	//   tcp        673 req/s   mean latency 51.115609ms   p95 254.507021ms   (400 completed, 0 failed)
	//            39 still in flight at the 400th, the oldest for 302.943361ms
	//   bonding   1138 req/s   mean latency 33.539275ms   p95 43.099446ms   (400 completed, 0 failed)
	//            39 still in flight at the 400th, the oldest for 31.035208ms
	//   mptcp      749 req/s   mean latency 45.291771ms   p95 219.718352ms   (400 completed, 0 failed)
	//            39 still in flight at the 400th, the oldest for 351.146624ms
}
