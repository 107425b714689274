package main

import (
	"mptcpgo/internal/capacity"
	"mptcpgo/internal/netem"
)

var capacityDrivers = []driver{
	{ns: "capacity.allocate_ns", ops: 100_000, run: capacityAllocate},
}

// capacityAllocate is one epoch barrier of the coupled runner: four shards
// report what they offered and sent on one shared link, over and under their
// share, and the allocator divides the next window.
func capacityAllocate(n int) (int, error) {
	c, err := capacity.NewCoupler(
		[]capacity.SharedLink{{Name: "core", RateBps: netem.Mbps(100)}},
		[]float64{16, 16, 16, 16},
	)
	if err != nil {
		return 0, err
	}
	offered := make([]uint64, 1)
	sent := make([]uint64, 1)
	for i := 0; i < n; i++ {
		for shard := 0; shard < 4; shard++ {
			// 100 ms windows: 125 KB is a shard's fair share of 100 Mbps.
			sent[0] = uint64(60_000 + 40_000*shard)
			offered[0] = sent[0] + uint64(i%3)*50_000
			c.Report(shard, offered, sent)
		}
		c.Allocate()
	}
	return n, nil
}
