// Command perf is the repository's benchmark: four fleet/bulk workloads run
// through the public facade, end-to-end metrics with a regression bound each,
// per-layer drivers, and a traced run that splits CPU by layer. See README.md.
//
//	go run ./bench/perf run -out perf.json      full run, every metric
//	go run ./bench/perf compare A.json B.json   A/B verdict per metric
//	go run ./bench/perf bench --workload churn --seed 1 --seconds 20 --trace 0
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perf run|bench|compare [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runMain(os.Args[2:])
	case "bench":
		err = benchMain(os.Args[2:])
	case "compare":
		err = compareMain(os.Args[2:])
	case "child":
		err = childMain(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want run, bench or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}
