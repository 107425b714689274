package main

import "mptcpgo/internal/pool"

var poolDrivers = []driver{
	{ns: "pool.get_put_ns", ops: 1_000_000, run: poolGetPut},
}

// poolGetPut takes an MSS-class buffer and gives it back.
func poolGetPut(n int) (int, error) {
	for i := 0; i < n; i++ {
		pool.Recycle(pool.Bytes(1460))
	}
	return n, nil
}

// poolCounters snapshots the process-wide buffer pool's counters; the traced
// run reports the miss share between two snapshots.
func poolCounters() pool.Counters { return pool.Stats() }
