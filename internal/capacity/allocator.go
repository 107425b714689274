package capacity

import (
	"cmp"
	"math"
	"slices"
)

// scratch is the allocation step's working memory. A ledger owns one, so a
// step allocates nothing once its slices have grown to the claimant count;
// what a method returns lives in the scratch and is overwritten by the
// scratch's next call.
type scratch struct {
	out     []int64 // admit's result
	targets []int64 // doubled demands
	floors  []int64 // shortfalls below the fair share
	grants  []int64 // the leftover's max-min split over floors
	order   []int   // claimants by demand per weight
}

// resize returns s with length n, reusing its backing array when it is large
// enough. The contents are left to the caller.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// maxMin computes into dst, resized to len(demands), the weighted max-min
// fair allocation of capacity (bits per second) among the given demands, and
// returns dst. Every claimant receives min(demand, water × weight) with the
// water level chosen so the allocations sum to min(capacity, Σdemands).
// Nobody gets more than they asked for, and a claimant is capped below its
// demand only when everyone still unsatisfied is held to the same weighted
// share.
//
// weights holds one positive, finite weight per demand, and the result never
// sums past capacity, whatever their sum rounds to. The computation is
// one-pass water-filling over claimants sorted by demand/weight with
// index-order tie-breaking, so the result is a pure deterministic function of
// (capacity, demands, weights) — no map iteration, no randomness.
func (sc *scratch) maxMin(dst []int64, capacity int64, demands []int64, weights []float64) []int64 {
	n := len(demands)
	alloc := resize(dst, n)
	clear(alloc)
	if n == 0 || capacity <= 0 {
		return alloc
	}
	wsum := sum(weights)
	order := resize(sc.order, n)
	sc.order = order
	for i := range order {
		order[i] = i
	}
	// Ascending demand-per-weight: once one claimant's fair share falls short
	// of its demand, every later claimant's does too.
	slices.SortStableFunc(order, func(ia, ib int) int {
		ra := float64(demands[ia]) / weights[ia]
		rb := float64(demands[ib]) / weights[ib]
		if ra != rb {
			if ra < rb {
				return -1
			}
			return 1
		}
		return cmp.Compare(ia, ib)
	})
	remaining := capacity
	for k, i := range order {
		if remaining <= 0 {
			break
		}
		// The last claimant's share is the rest, and no share exceeds it: a
		// weight sum that rounds would otherwise let the water level drift past
		// the capacity.
		share := remaining
		if k < n-1 {
			share = min(int64(float64(remaining)*weights[i]/wsum), remaining)
		}
		alloc[i] = min(max(demands[i], 0), share)
		remaining -= alloc[i]
		wsum -= weights[i]
	}
	return alloc
}

// admit turns one window's measured demands into the next window's admitted
// rates, written into sc.out — the allocation rule both coupler (across
// shards) and meter (across a shard's members) apply:
//
//  1. Active claimants (nonzero measured demand) compete by weighted max-min
//     over *doubled* demands. Raw measurements would pin the allocation — a
//     TCP sender above a rate cap is ack-clocked to the cap, so its measured
//     rate equals its allocation and max-min would never grant more even with
//     the resource idle; the doubling leaves every active claimant a
//     multiplicative probe band.
//  2. Every claimant still below its weighted fair share — idle members, and
//     crucially the barely-active ones whose doubled demand is still tiny
//     (a flow that has sent one handshake) — is topped up toward the fair
//     share out of whatever the probe targets left unclaimed. Admission
//     stays open and a fresh flow starts at fair speed when the resource
//     has slack, but a contended resource is never stranded on claimants
//     with nothing to send.
//  3. Remaining headroom is spread in proportion to the grants, so
//     demonstrated demand absorbs most of the slack and can keep revealing
//     growth.
//
// The result always sums to at most capacity (exactly capacity whenever any
// demand was measured), and is a pure deterministic function of its
// arguments. A window with no measured demand at all falls back to the
// weight-proportional spread, which is also the correct epoch-0 allocation.
func (sc *scratch) admit(capacity int64, demands []int64, weights []float64) []int64 {
	n := len(demands)
	targets := resize(sc.targets, n)
	sc.targets = targets
	anyActive := false
	for i, d := range demands {
		targets[i] = 0
		if d > 0 {
			targets[i] = 2 * d
			anyActive = true
		}
	}
	if !anyActive {
		sc.out = resize(sc.out, n)
		clear(sc.out)
		return spreadHeadroom(sc.out, capacity, sc.out, weights)
	}
	alloc := sc.maxMin(sc.out, capacity, targets, weights)
	sc.out = alloc
	if leftover := capacity - sum(alloc); leftover > 0 {
		// Fair-share floors, carved from the leftover only: every claimant
		// whose probe grant fell short of a weighted fair share of the whole
		// resource — idle members and barely-active ones alike — is topped up
		// toward it, max-min over the shortfalls so the leftover is never
		// oversubscribed. Claimants already at or above fair share have a zero
		// shortfall and stay out.
		wsum := sum(weights)
		floors := resize(sc.floors, n)
		sc.floors = floors
		for i, w := range weights {
			floors[i] = 0
			if fair := int64(float64(capacity) * w / wsum); alloc[i] < fair {
				floors[i] = fair - alloc[i]
			}
		}
		sc.grants = sc.maxMin(sc.grants, leftover, floors, weights)
		for i, g := range sc.grants {
			alloc[i] += g
		}
	}
	return spreadHeadroomByAlloc(alloc, capacity, alloc, weights)
}

// SmoothDemand folds one window's measured demand into a peak-hold-with-decay
// estimate: the new estimate is the measurement unless the previous estimate,
// halved, is larger. A TCP sender waiting out a retransmission timeout offers
// nothing for a window, and snapping its demand to zero would hand it a
// near-zero cap that makes the stall permanent — under contention a
// zero-demand claimant wins no allocation at all. Halving instead lets a
// genuinely finished claimant release its share within a few windows while a
// stalled one keeps enough admitted rate to recover.
func SmoothDemand(prev, measured int64) int64 {
	if half := prev / 2; measured < half {
		return half
	}
	return measured
}

// TrickleFloor is the minimum admitted rate for one claimant of a shared
// resource: about two full-size segments per epoch window, bounded by the
// claimant's weighted fair share of the resource. A real shared link is one
// FIFO — any sender can always inject a packet — and the distributed
// equivalent is that no claimant's cap may fall below a trickle. Below it, a
// claimant that stalls for one window gets a near-zero cap, its next window's
// enqueue commits its link to seconds of serialization at that rate, and the
// stall becomes self-sustaining. The allocation step raises every admit
// result to this floor; the overbooking is at most a few segments per
// stalled claimant per epoch, and a claimant actually using its floor reveals
// demand and rejoins the capacity-constrained allocation next window.
func TrickleFloor(capacity int64, epochSec float64, weight, wsum float64) int64 {
	return min(int64(2*1500*8/epochSec), int64(float64(capacity)*weight/wsum))
}

// ValidWeight reports whether w can weigh a claimant: positive and finite.
func ValidWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// ledger is one resource's claimants as the allocation step sees them: the
// shards on one coupler link, or one shard's member link directions on it.
// It holds each claimant's weight, fixed when the claimant joins, its
// smoothed demand in bits per second, carried across windows, and the
// scratch its steps work in.
type ledger struct {
	weights []float64
	wsum    float64
	demands []int64
	scratch
}

func (l *ledger) add(weight float64) {
	l.weights = append(l.weights, weight)
	l.wsum += weight
	l.demands = append(l.demands, 0)
}

// observe folds the bytes claimant i offered over one window of epochSec
// seconds into its demand.
func (l *ledger) observe(i int, offered uint64, epochSec float64) {
	l.demands[i] = SmoothDemand(l.demands[i], int64(float64(offered)*8/epochSec))
}

// step is the capacity exchange's one allocation step, the same at both
// levels: admit over demands, then every claimant raised to its trickle
// floor. The result is the ledger's own slice, valid until its next step.
func (l *ledger) step(capacity int64, epochSec float64, demands []int64) []int64 {
	out := l.admit(capacity, demands, l.weights)
	for i, w := range l.weights {
		out[i] = max(out[i], TrickleFloor(capacity, epochSec, w, l.wsum))
	}
	return out
}

func sum[T int64 | float64](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// spreadHeadroom distributes the capacity left unclaimed by a max-min
// allocation back to the claimants in proportion to weight, writing into out
// (alloc's length, and may be alloc itself) a result that sums to (almost
// exactly) capacity. The headroom is what lets a rate-capped TCP flow reveal
// growing demand: with alloc == last-measured offered bytes, the cap would
// pin the measurement to itself forever; with each claimant holding its
// allocation plus a weighted slice of the slack, a sender that wants more can
// offer more, and the next epoch's max-min sees it. Integer floors leave at
// most a few bits per second unassigned; they go to the lowest-indexed
// claimant so the result stays deterministic.
func spreadHeadroom(out []int64, capacity int64, alloc []int64, weights []float64) []int64 {
	if len(alloc) == 0 {
		return out
	}
	leftover := max(capacity-sum(alloc), 0)
	wsum := sum(weights)
	var given int64
	for i, w := range weights {
		extra := int64(float64(leftover) * w / wsum)
		out[i] = alloc[i] + extra
		given += extra
	}
	out[0] += leftover - given
	return out
}

// spreadHeadroomByAlloc distributes the unclaimed capacity in proportion to
// each claimant's granted allocation instead of its weight, writing into out
// as spreadHeadroom does: headroom follows demonstrated demand, so the active
// claimants absorb the slack (and ramp multiplicatively on top of their probe
// targets) while idle claimants keep only their probe floor instead of
// stranding a weight-share of an almost-idle resource. When nothing was
// granted — epoch zero, or a fully idle window — it falls back to the
// weighted spread. The integer residue goes to the first claimant with a
// grant, keeping the result deterministic.
func spreadHeadroomByAlloc(out []int64, capacity int64, alloc []int64, weights []float64) []int64 {
	used := sum(alloc)
	if used <= 0 {
		return spreadHeadroom(out, capacity, alloc, weights)
	}
	leftover := max(capacity-used, 0)
	var given int64
	first := -1
	for i, a := range alloc {
		extra := int64(float64(leftover) * float64(a) / float64(used))
		out[i] = a + extra
		given += extra
		if first < 0 && a > 0 {
			first = i
		}
	}
	out[first] += leftover - given
	return out
}
