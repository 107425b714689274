package main

import (
	"fmt"

	"mptcpgo/internal/faults"
)

var faultsDrivers = []driver{
	{ns: "faults.checker_ns_per_kb", ops: 40_000, run: faultsChecker},
}

// faultsChecker generates and verifies the chaos workload's payload pattern
// one KiB at a time: the integrity oracle, which the sizing profile found to
// be most of that workload's CPU.
func faultsChecker(n int) (int, error) {
	k := faults.NewChecker(42, n<<10)
	buf := make([]byte, 1<<10)
	for i := 0; i < n; i++ {
		k.Fill(buf, uint64(i)<<10)
		k.Feed(buf)
	}
	if !k.Complete() {
		return 0, fmt.Errorf("checker: %v", k.Err())
	}
	return n, nil
}
