package capacity

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// MaxMin is the weighted max-min allocation (scratch.maxMin) as a pure
// function: it runs on a fresh scratch and returns a fresh slice.
func MaxMin(capacity int64, demands []int64, weights []float64) []int64 {
	return new(scratch).maxMin(nil, capacity, demands, weights)
}

// Admit is the allocation rule (scratch.admit) as a pure function: it runs on
// a fresh scratch, so no earlier step can leave anything in its result.
func Admit(capacity int64, demands []int64, weights []float64) []int64 {
	return new(scratch).admit(capacity, demands, weights)
}

// TestMaxMinHandComputed pins the allocator to hand-computed water-filling
// results: a bug in the sort order, the share arithmetic or the remaining
// bookkeeping moves whole epochs of fleet capacity, so the cases are exact.
func TestMaxMinHandComputed(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		demands  []int64
		weights  []float64
		want     []int64
	}{
		{
			// Three shards, equal weights: the light shard keeps its demand,
			// the two heavy ones split the rest at the same water level.
			name: "threeShardsEqualWeights", capacity: 12,
			demands: []int64{2, 5, 9}, weights: []float64{1, 1, 1},
			want: []int64{2, 5, 5},
		},
		{
			// The weighted case from the coupler docs: shard 0 carries twice
			// the weight, the small shard is satisfied first, and the two
			// bottlenecked shards divide the remainder 2:1.
			name: "threeShardsWeighted", capacity: 12_000_000,
			demands: []int64{9_000_000, 9_000_000, 2_000_000}, weights: []float64{2, 1, 1},
			want: []int64{6_666_666, 3_333_334, 2_000_000},
		},
		{
			name: "underloadedEveryoneSatisfied", capacity: 100,
			demands: []int64{10, 20, 30}, weights: []float64{1, 1, 1},
			want: []int64{10, 20, 30},
		},
		{
			name: "zeroCapacity", capacity: 0,
			demands: []int64{5, 5}, weights: []float64{1, 1},
			want: []int64{0, 0},
		},
		{
			name: "negativeDemandClamped", capacity: 10,
			demands: []int64{-3, 4}, weights: []float64{1, 1},
			want: []int64{0, 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := MaxMin(tc.capacity, tc.demands, tc.weights)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("MaxMin(%d, %v, %v) = %v, want %v",
					tc.capacity, tc.demands, tc.weights, got, tc.want)
			}
			var sum int64
			for _, a := range got {
				sum += a
			}
			if sum > tc.capacity {
				t.Fatalf("allocation %v oversubscribes capacity %d", got, tc.capacity)
			}
		})
	}
}

func TestMaxMinDeterministicTieBreak(t *testing.T) {
	// Identical demand/weight ratios must resolve in index order, every time:
	// integer water-filling hands the rounding slack to the last claimant in
	// the (stable) order, so [3 3 4] exactly — never a permutation of it.
	for trial := 0; trial < 10; trial++ {
		got := MaxMin(10, []int64{7, 7, 7}, []float64{1, 1, 1})
		if want := []int64{3, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MaxMin = %v, want %v", trial, got, want)
		}
	}
}

func TestSpreadHeadroom(t *testing.T) {
	got := spreadHeadroom(make([]int64, 3), 100, []int64{10, 20, 30}, []float64{1, 1, 1})
	// Leftover 40 splits 13/13/13 with the integer residue on claimant 0.
	if want := []int64{24, 33, 43}; !reflect.DeepEqual(got, want) {
		t.Fatalf("spreadHeadroom = %v, want %v", got, want)
	}
	var sum int64
	for _, a := range got {
		sum += a
	}
	if sum != 100 {
		t.Fatalf("headroom spread sums to %d, want the full capacity 100", sum)
	}
}

func TestSpreadHeadroomByAllocFollowsDemand(t *testing.T) {
	// The only active claimant absorbs all headroom; idles stay at zero.
	got := spreadHeadroomByAlloc(make([]int64, 3), 100, []int64{0, 50, 0}, []float64{1, 1, 1})
	if want := []int64{0, 100, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("spreadHeadroomByAlloc = %v, want %v", got, want)
	}
	// Fully idle windows fall back to the weighted spread.
	got = spreadHeadroomByAlloc(make([]int64, 2), 80, []int64{0, 0}, []float64{1, 3})
	if want := []int64{20, 60}; !reflect.DeepEqual(got, want) {
		t.Fatalf("idle fallback = %v, want %v", got, want)
	}
}

func TestAdmitIdleFloorsFromLeftover(t *testing.T) {
	// One active claimant at 10 of 80, two idle. The active's probe target is
	// 20; the idles each get their fair-share floor (80/3 = 26) out of the
	// leftover; the remaining headroom follows the grants. The result must
	// use the whole capacity and give every idle claimant at least its floor.
	got := Admit(80, []int64{0, 10, 0}, []float64{1, 1, 1})
	var sum int64
	for _, a := range got {
		sum += a
	}
	if sum != 80 {
		t.Fatalf("Admit = %v sums to %d, want the full 80", got, sum)
	}
	if got[0] < 26 || got[2] < 26 {
		t.Fatalf("Admit = %v: idle claimants got less than their 26-unit floor", got)
	}
	if got[1] < 20 {
		t.Fatalf("Admit = %v: active claimant got less than its doubled demand", got)
	}
}

func TestAdmitOverloadIsWeightedMaxMin(t *testing.T) {
	// Every claimant hungry: idle floors and headroom vanish and Admit
	// degenerates to weighted max-min over the doubled demands.
	demands := []int64{9_000_000, 9_000_000, 9_000_000}
	got := Admit(12_000_000, demands, []float64{2, 1, 1})
	want := MaxMin(12_000_000, []int64{18_000_000, 18_000_000, 18_000_000}, []float64{2, 1, 1})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Admit = %v, want the pure weighted max-min %v", got, want)
	}
}

func TestAdmitAllIdleIsWeightSpread(t *testing.T) {
	got := Admit(80, []int64{0, 0}, []float64{1, 3})
	if want := []int64{20, 60}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Admit = %v, want the weighted spread %v", got, want)
	}
}

func TestSmoothDemand(t *testing.T) {
	cases := []struct{ prev, measured, want int64 }{
		{0, 5_000, 5_000},     // cold start takes the measurement
		{8_000, 9_000, 9_000}, // growth takes the measurement
		{8_000, 0, 4_000},     // a stall window decays by half, not to zero
		{8_000, 3_000, 4_000}, // a dip below half also holds the decayed peak
		{8_000, 4_500, 4_500}, // a dip above half is believed
		{1, 0, 0},             // decay does reach zero for a finished claimant
	}
	for _, tc := range cases {
		if got := SmoothDemand(tc.prev, tc.measured); got != tc.want {
			t.Errorf("SmoothDemand(%d, %d) = %d, want %d", tc.prev, tc.measured, got, tc.want)
		}
	}
}

func TestTrickleFloor(t *testing.T) {
	// 100ms epochs: two 1500-byte segments per window = 240 kbps.
	if got := TrickleFloor(10_000_000, 0.1, 1, 32); got != 240_000 {
		t.Errorf("TrickleFloor = %d, want 240000", got)
	}
	// The floor never exceeds the claimant's weighted fair share.
	if got := TrickleFloor(320_000, 0.1, 1, 32); got != 10_000 {
		t.Errorf("fair-share-bounded floor = %d, want 10000", got)
	}
}

// TestAdmitConverges drives the measured-demand feedback loop the way an
// epoch sequence does: each round the hungry claimant "offers" exactly what
// it was last admitted (the ack-clocked TCP behaviour that motivates the
// probe doubling). Raw max-min would pin the loop at its first allocation;
// Admit must walk a single hungry claimant up to essentially the whole
// resource, with the idle claimants holding only slack-funded floors.
func TestAdmitConverges(t *testing.T) {
	const capacity = 10_000_000
	measured := []int64{1_000, 0, 0} // one hungry claimant, two idle
	for round := 0; round < 16; round++ {
		alloc := Admit(capacity, measured, []float64{1, 1, 1})
		measured = []int64{alloc[0], 0, 0} // hungry claimant fills its cap
	}
	if min := int64(capacity * 9 / 10); measured[0] < min {
		t.Fatalf("hungry claimant converged to %d bps, want >= %d", measured[0], min)
	}
}

// FuzzAdmit is the "allocator conserves capacity" oracle. Each claim is seven
// bytes: a weight (k+1)/1000 from two, whose sums round, and a signed 40-bit
// demand in bits per second from five.
//   - MaxMin never grants more than a demand and sums to min(capacity,
//     Σdemand) within one bit per second per claimant.
//   - Admit sums to exactly the capacity whenever the capacity is positive.
//   - The allocation step gives every claimant at least its trickle floor and
//     sums to at most the capacity plus the floors.
//   - One ledger stepped again on demands that change between steps (rotated,
//     all idle, halved, restored) gives, each time, what Admit and the
//     trickle floors give on fresh slices: a step that read its scratch's
//     leftovers from the step before would not.
func FuzzAdmit(f *testing.F) {
	claims := func(demands []int64, weights []float64) []byte {
		var b []byte
		for i, d := range demands {
			k := int(math.Round(weights[i]*1000)) - 1
			b = append(b, byte(k>>8), byte(k), byte(d>>32), byte(d>>24), byte(d>>16), byte(d>>8), byte(d))
		}
		return b
	}
	ones := []float64{1, 1, 1}
	f.Add(int64(12), uint16(100), claims([]int64{2, 5, 9}, ones))
	f.Add(int64(12_000_000), uint16(100), claims([]int64{9_000_000, 9_000_000, 2_000_000}, []float64{2, 1, 1}))
	f.Add(int64(100), uint16(100), claims([]int64{10, 20, 30}, ones))
	f.Add(int64(0), uint16(100), claims([]int64{5, 5}, ones))
	f.Add(int64(10), uint16(100), claims([]int64{-3, 4}, ones))
	f.Add(int64(10), uint16(100), claims([]int64{7, 7, 7}, ones))
	f.Add(int64(80), uint16(100), claims([]int64{0, 10, 0}, ones))
	f.Add(int64(12_000_000), uint16(100), claims([]int64{9_000_000, 9_000_000, 9_000_000}, []float64{2, 1, 1}))
	f.Add(int64(80), uint16(100), claims([]int64{0, 0}, []float64{1, 3}))
	f.Add(int64(10_000_000), uint16(100), claims([]int64{1_000, 0, 0}, ones))
	// The water level once drifted past this capacity by 9 bps: the weights'
	// running sum rounds below the last claimant's weight.
	f.Add(int64(2_653_323_373_306), uint16(100), claims(
		[]int64{531490265371, 51982593584, 13277547046, 113352885681, 540897590821, 542327044086, 458114662966, 402464482928},
		[]float64{3.736, 13.882, 31.597, 32.922, 11.089, 56.189, 0.001, 29.052}))
	f.Fuzz(func(t *testing.T, capacity int64, epochMs uint16, b []byte) {
		if capacity %= 1e13; capacity < 0 {
			capacity = -capacity
		}
		epochSec := float64(max(epochMs, 1)) / 1000
		var l ledger
		var demands []int64
		for ; len(b) >= 7; b = b[7:] {
			d := int64(int8(b[2]))
			for _, x := range b[3:7] {
				d = d<<8 | int64(x)
			}
			demands = append(demands, d)
			l.add(float64(int(b[0])<<8|int(b[1])+1) / 1000)
		}
		n := int64(len(demands))
		if n == 0 {
			return
		}

		var want, got int64
		for i, a := range MaxMin(capacity, demands, l.weights) {
			d := max(demands[i], 0)
			if a < 0 || a > d {
				t.Fatalf("MaxMin gave claimant %d %d bps against a demand of %d", i, a, demands[i])
			}
			want += d
			got += a
		}
		if want = min(want, capacity); got > want || got < want-n {
			t.Fatalf("MaxMin sums to %d, want %d within %d", got, want, n)
		}

		got = 0
		for _, a := range Admit(capacity, demands, l.weights) {
			got += a
		}
		if capacity > 0 && got != capacity {
			t.Fatalf("Admit sums to %d, want the capacity %d", got, capacity)
		}

		var floors int64
		got = 0
		for i, a := range l.step(capacity, epochSec, demands) {
			f := TrickleFloor(capacity, epochSec, l.weights[i], l.wsum)
			if a < f {
				t.Fatalf("claimant %d admitted %d bps, below its trickle floor %d", i, a, f)
			}
			floors += f
			got += a
		}
		if got > capacity+floors {
			t.Fatalf("the step admits %d bps, over the capacity %d plus the floors %d", got, capacity, floors)
		}

		next := make([]int64, n)
		for round := 0; round < 4; round++ {
			for i := range next {
				switch round {
				case 0:
					next[i] = demands[(i+1)%len(demands)]
				case 1:
					next[i] = 0
				case 2:
					next[i] = demands[i] / 2
				case 3:
					next[i] = demands[i]
				}
			}
			want := Admit(capacity, next, l.weights)
			for i, w := range l.weights {
				want[i] = max(want[i], TrickleFloor(capacity, epochSec, w, l.wsum))
			}
			if got := l.step(capacity, epochSec, next); !slices.Equal(got, want) {
				t.Fatalf("round %d: a reused ledger steps %v to %v, a fresh Admit to %v", round, next, got, want)
			}
		}
	})
}
