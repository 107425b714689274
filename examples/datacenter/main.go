// datacenter runs single points of the dual-gigabit HTTP scenario of
// Figure 11: closed-loop clients fetching fixed-size objects from a server
// over regular TCP on one link, TCP over two bonded links, and MPTCP over
// both links, printing the requests/second each transport sustains. The
// whole sweep is `mptcpbench -run fig11`; add -pcap-dir or -trace-dir there
// for a point's wire capture or flight recorder.
package main

import (
	"flag"
	"fmt"
	"log"

	"mptcpgo/internal/experiments"
)

func main() {
	clients := flag.Int("clients", 40, "concurrent closed-loop clients")
	requests := flag.Int("requests", 400, "requests per configuration")
	sizeKB := flag.Int("size", 150, "object size in KB")
	flag.Parse()

	fmt.Printf("HTTP over two 1 Gbps links: %d clients, %d requests, %d KB objects\n",
		*clients, *requests, *sizeKB)

	for _, mode := range []string{"tcp", "bonding", "mptcp"} {
		res, err := experiments.RunFig11Point(99, mode, *sizeKB<<10, *clients, *requests, experiments.Options{}, "")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %8.0f req/s   mean latency %8v   p95 %8v   (%d completed, %d failed)\n",
			mode, res.RequestsPerSec, res.MeanLatency, res.P95Latency, res.Completed, res.Failed)
	}
	fmt.Println("\nexpected shape (paper Fig. 11): MPTCP ~doubles single-link TCP for large objects;")
	fmt.Println("bonding is competitive for small objects, MPTCP pulls ahead as objects grow")
}
