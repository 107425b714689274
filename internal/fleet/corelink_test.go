package fleet

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/workload"
)

// coreBusyThrough averages the "core through" series over the back half of
// the arrival window (epochs 20..60 of 50ms): past the slow-start ramp,
// before the drain tail. This is the saturation signal — the flow-level
// goodput column is additionally depressed by deadline-killed flows (work
// the core served but that died anyway), which is congestion-collapse
// physics, not an allocation property.
func coreBusyThrough(res *experiments.Result) float64 {
	for _, s := range res.Series {
		if s.Name != "core through" {
			continue
		}
		lo, hi := 20, 60
		if hi > len(s.Y) {
			hi = len(s.Y)
		}
		if hi <= lo {
			return 0
		}
		var sum float64
		for _, v := range s.Y[lo:hi] {
			sum += v
		}
		return sum / float64(hi-lo)
	}
	return 0
}

// testCorelinkSpec is a small fleet-corelink workload (RunOpenLoop with
// Shared set): 12 hosts across 4 shards all downloading through one shared
// core link. The 50ms epoch keeps the capacity exchange adapting well within
// the short test window.
func testCorelinkSpec(workers int, rate float64, coreMbps float64) OpenLoopSpec {
	return OpenLoopSpec{
		Common: Common{Seed: 42, Shards: 4, Workers: workers,
			Shared: &capacity.SharedLink{Name: "core", RateBps: netem.Mbps(coreMbps), Epoch: 50 * time.Millisecond}},
		Hosts:        12,
		Arrival:      workload.Poisson(rate),
		Sizes:        workload.FixedSize(16 << 10),
		Window:       3 * time.Second,
		FlowDeadline: 3 * time.Second,
	}
}

// TestCorelinkWorkerInvariance pins the coupled engine to the fleet merge
// contract: the epoch barrier serializes every Report before the Allocate
// that reads it, so the merged JSON — scenario tables, capacity trace and
// all — is byte-identical whether shards run sequentially under GOMAXPROCS=1
// or in parallel under GOMAXPROCS=4.
func TestCorelinkWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	res1, err1 := RunOpenLoop(testCorelinkSpec(1, 60, 8))
	runtime.GOMAXPROCS(4)
	res4, err4 := RunOpenLoop(testCorelinkSpec(4, 60, 8))
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

// TestCorelinkShardCountDeterminism checks each shard count is run-to-run
// deterministic, that the offered schedule is invariant across partitions
// (arrivals derive from the root seed and the global host index), and that
// the shared-rate ceiling is a *global* property: under overload the core's
// busy-period throughput lands in the same saturation band whether the
// coupler sees 1, 2 or 4 shards — re-partitioning moves members between
// ledger slots without changing the resource they contend for.
func TestCorelinkShardCountDeterminism(t *testing.T) {
	const coreMbps = 8.0
	offered := ""
	for _, shards := range []int{1, 2, 4} {
		spec := testCorelinkSpec(2, 122, coreMbps)
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
		if through := coreBusyThrough(first); through < coreMbps*0.55 || through > coreMbps*1.25 {
			t.Errorf("shards=%d: busy-period through %.2f Mbps outside the [%.1f, %.1f] saturation band of the shared core",
				shards, through, coreMbps*0.55, coreMbps*1.25)
		}
	}
	if offered == "0" {
		t.Fatal("workload offered no flows at all")
	}
}

// TestCorelinkGlobalOverloadKnee is the acceptance check that motivates the
// subsystem: with every download transiting a shared core link, offering
// about twice the core's rate across 4 shards must saturate the merged
// goodput at the core rate — not at the (much larger) sum of per-shard
// access capacity — while the latency tail rises. Without the coupling the
// same workload is 4 disjoint underloaded shards and goodput would track
// offered load.
func TestCorelinkGlobalOverloadKnee(t *testing.T) {
	const coreMbps = 8.0
	run := func(rate float64) (offered, goodput, p99, through float64) {
		res, err := RunOpenLoop(testCorelinkSpec(0, rate, coreMbps))
		if err != nil {
			t.Fatal(err)
		}
		table := res.Tables[0]
		all := table.Rows[len(table.Rows)-1]
		return parseF(t, all[8]), parseF(t, all[9]), parseF(t, all[11]), coreBusyThrough(res)
	}
	// 16 KB flows: 20/s ≈ 2.6 Mbps offered (under the core), 122/s ≈ 16 Mbps
	// offered (2× the core, still well under the ~57 Mbps of summed access).
	_, lightGoodput, lightP99, _ := run(20)
	heavyOffered, heavyGoodput, heavyP99, heavyThrough := run(122)

	if heavyOffered < 1.5*coreMbps {
		t.Fatalf("overload run offered only %.2f Mbps, want >= %.2f (setup no longer oversubscribes the core)", heavyOffered, 1.5*coreMbps)
	}
	// Saturation: the busy-period core throughput pins at the shared rate
	// (small overshoot allowance for the meter's trickle floors) even though
	// the offered load is twice it and the summed access capacity is 7× it.
	if heavyThrough > coreMbps*1.25 {
		t.Errorf("busy-period through %.2f Mbps exceeds the %.1f Mbps shared core: coupling is not enforcing the bottleneck", heavyThrough, coreMbps)
	}
	if heavyThrough < coreMbps*0.55 {
		t.Errorf("busy-period through %.2f Mbps is far below the %.1f Mbps shared core: allocation is stranding capacity", heavyThrough, coreMbps)
	}
	// The knee: flow-level goodput must not track the 6× offered-load jump.
	if heavyGoodput > lightGoodput*3 {
		t.Errorf("goodput scaled with offered load (%.2f -> %.2f Mbps): no saturation knee", lightGoodput, heavyGoodput)
	}
	if heavyP99 <= lightP99 {
		t.Errorf("p99 latency did not rise under overload (%.2f -> %.2f ms)", lightP99, heavyP99)
	}
}

// TestCorelinkUnitWeightsAreTheDefault: a shard's weight is its member count
// whether Weight is nil or gives every host 1, so the two runs are
// byte-identical.
func TestCorelinkUnitWeightsAreTheDefault(t *testing.T) {
	plain := testCorelinkSpec(2, 60, 8)
	unit := plain
	unit.Weight = func(int) float64 { return 1 }
	a, err := RunOpenLoop(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOpenLoop(unit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJSON(t, a), encodeJSON(t, b)) {
		t.Fatal("unit weights and nil Weight gave different results")
	}
}

// TestCorelinkRejectsBadWeight: a host weight that is not positive and finite
// fails the run, naming the host.
func TestCorelinkRejectsBadWeight(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		spec := testCorelinkSpec(2, 60, 8)
		spec.Weight = func(i int) float64 {
			if i == 7 {
				return w
			}
			return 1
		}
		if _, err := RunOpenLoop(spec); err == nil || !strings.Contains(err.Error(), "member 7:") {
			t.Errorf("weight %v: err = %v, want one naming member 7", w, err)
		}
	}
}
