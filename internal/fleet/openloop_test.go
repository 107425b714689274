package fleet

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mptcpgo/internal/workload"
)

// testOpenLoopSpec is a small fleet-openloop workload: 12 hosts, 4 shards,
// Poisson arrivals well within the access links' capacity.
func testOpenLoopSpec(workers int, rate float64) OpenLoopSpec {
	return OpenLoopSpec{
		Common:       Common{Seed: 42, Shards: 4, Workers: workers},
		Hosts:        12,
		Arrival:      workload.Poisson(rate),
		Sizes:        workload.FixedSize(16 << 10),
		Window:       2 * time.Second,
		FlowDeadline: 3 * time.Second,
	}
}

// TestOpenLoopWorkerInvariance pins the open-loop engine to the same
// contract as fleet-http: the merged JSON is byte-identical whether shards
// run sequentially under GOMAXPROCS=1 or in parallel under GOMAXPROCS=4.
func TestOpenLoopWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	res1, err1 := RunOpenLoop(testOpenLoopSpec(1, 60))
	runtime.GOMAXPROCS(4)
	res4, err4 := RunOpenLoop(testOpenLoopSpec(4, 60))
	runtime.GOMAXPROCS(prev)
	if err1 != nil {
		t.Fatal(err1)
	}
	if err4 != nil {
		t.Fatal(err4)
	}
	j1, j4 := encodeJSON(t, res1), encodeJSON(t, res4)
	if !bytes.Equal(j1, j4) {
		t.Fatalf("merged JSON differs between 1 worker (GOMAXPROCS=1) and 4 workers (GOMAXPROCS=4):\n--- w1 ---\n%s\n--- w4 ---\n%s", j1, j4)
	}
}

// TestOpenLoopShardCountDeterminism checks that each shard count is
// run-to-run deterministic and that the offered schedule is invariant across
// partitions: per-host arrival streams derive from the root seed and the
// global host index, so re-partitioning moves flows between shards without
// creating or destroying any.
func TestOpenLoopShardCountDeterminism(t *testing.T) {
	offered := ""
	for _, shards := range []int{1, 3, 4} {
		spec := testOpenLoopSpec(2, 60)
		spec.Shards = shards
		first, err := RunOpenLoop(spec)
		if err != nil {
			t.Fatal(err)
		}
		second, err := RunOpenLoop(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeJSON(t, first), encodeJSON(t, second)) {
			t.Fatalf("shards=%d: two runs at the same seed differ", shards)
		}
		table := first.Tables[0]
		all := table.Rows[len(table.Rows)-1]
		if offered == "" {
			offered = all[2]
		} else if all[2] != offered {
			t.Fatalf("shards=%d: offered %s flows, want %s (arrival schedule must not depend on the partition)", shards, all[2], offered)
		}
	}
	if offered == "0" {
		t.Fatal("workload offered no flows at all")
	}
}

// TestOpenLoopOverloadObservable is the regime check that motivates the
// subsystem: pushing the offered rate far past capacity must saturate
// goodput and surface drops/queueing that a closed-loop pool cannot show.
func TestOpenLoopOverloadObservable(t *testing.T) {
	run := func(rate float64) (goodput, p99 float64, dropped, open int) {
		res, err := RunOpenLoop(testOpenLoopSpec(0, rate))
		if err != nil {
			t.Fatal(err)
		}
		table := res.Tables[0]
		all := table.Rows[len(table.Rows)-1]
		goodput = parseF(t, all[9])
		p99 = parseF(t, all[11])
		dropped = int(parseF(t, all[4]))
		open = int(parseF(t, all[7]))
		return
	}
	lightGoodput, lightP99, _, _ := run(40)
	heavyGoodput, heavyP99, heavyDropped, heavyOpen := run(2000)

	// 2000 flows/s × 16 KB ≈ 256 Mbps offered against ~69 Mbps of summed
	// access capacity: goodput must not scale with offered load (saturation).
	if heavyGoodput > lightGoodput*20 {
		t.Errorf("goodput scaled with offered load (%.2f -> %.2f Mbps): not saturating", lightGoodput, heavyGoodput)
	}
	if heavyP99 <= lightP99 {
		t.Errorf("p99 latency did not rise under overload (%.2f -> %.2f ms)", lightP99, heavyP99)
	}
	if heavyDropped+heavyOpen == 0 {
		t.Error("overload produced no dropped or unfinished flows")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad table cell %q: %v", s, err)
	}
	return v
}
