package capacity

import (
	"fmt"
	"time"
)

// EpochRecord is one shared link's ledger entry for one completed epoch: the
// demand every shard reported for the window and what the allocator admitted
// for the next one. The fleet engine merges these per-epoch capacity traces
// into the scenario result.
type EpochRecord struct {
	// Epoch is the completed window's index (0-based).
	Epoch int
	// Link indexes the coupler's shared-link list.
	Link int
	// OfferedBytes sums the bytes all shards presented to the resource's
	// tagged directions during the window (drops included — demand, not
	// goodput). SentBytes is what the tagged directions actually serialized.
	OfferedBytes uint64
	SentBytes    uint64
	// Bottlenecked counts the shards whose demand exceeded their next-window
	// allocation (before headroom).
	Bottlenecked int
	// MinAllocBps and MaxAllocBps bound the next-window per-shard admitted
	// rates (after headroom).
	MinAllocBps, MaxAllocBps int64
}

// Coupler is the fleet-global side of the capacity exchange: a per-link,
// per-shard ledger of offered bytes, and the deterministic allocator that
// turns one epoch's ledger into the next epoch's admitted rates.
//
// Concurrency contract (the "epoch barrier"): Report writes only the
// reporting shard's own slots, so any number of shard workers may report one
// epoch concurrently; Allocate must be called from a single goroutine after
// every shard's Report for the window has completed (the fleet engine's
// worker-pool join provides the happens-before edge). Under that contract the
// allocation for epoch k is a pure function of (k, shard weights, offered
// bytes), never of worker interleaving.
type Coupler struct {
	// OnEpoch, when non-nil, is invoked from Allocate (single-goroutine, at
	// the epoch barrier) with each completed window's record, in (epoch,
	// link) order. The fleet engine uses it to feed the flight recorder.
	OnEpoch func(EpochRecord)

	links []SharedLink
	epoch time.Duration
	// weights[shard] is the shard's allocation weight on every link — the sum
	// of its tagged members' weights, computed once at construction from the
	// shard partition alone.
	weights []float64

	offered [][]uint64 // [link][shard] bytes offered this window
	sent    [][]uint64 // [link][shard] bytes serialized this window

	// demand[link][shard] is the peak-hold demand estimate (bits per second)
	// carried across windows, so one all-members-stalled window does not zero
	// a shard's claim (see SmoothDemand).
	demand [][]int64
	epochs int
	trace  []EpochRecord
}

// NewCoupler builds a coupler for the given shared links and per-shard
// weights. All links must agree on the epoch length (a single barrier cadence
// drives the whole fleet); zero-epoch specs inherit DefaultEpoch first.
func NewCoupler(links []SharedLink, shardWeights []float64) (*Coupler, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("capacity: coupler needs at least one shared link")
	}
	if len(shardWeights) == 0 {
		return nil, fmt.Errorf("capacity: coupler needs at least one shard")
	}
	ls := make([]SharedLink, len(links))
	seen := make(map[string]bool, len(links))
	for i, l := range links {
		l = l.withDefaults()
		if err := l.Validate(); err != nil {
			return nil, err
		}
		if seen[l.Name] {
			return nil, fmt.Errorf("capacity: duplicate shared link %q", l.Name)
		}
		seen[l.Name] = true
		if i > 0 && l.Epoch != ls[0].Epoch {
			return nil, fmt.Errorf("capacity: shared links %q and %q disagree on epoch (%v vs %v)",
				ls[0].Name, l.Name, ls[0].Epoch, l.Epoch)
		}
		ls[i] = l
	}
	c := &Coupler{
		links:   ls,
		epoch:   ls[0].Epoch,
		weights: append([]float64(nil), shardWeights...),
		offered: make([][]uint64, len(ls)),
		sent:    make([][]uint64, len(ls)),
		demand:  make([][]int64, len(ls)),
	}
	for j := range ls {
		c.offered[j] = make([]uint64, len(shardWeights))
		c.sent[j] = make([]uint64, len(shardWeights))
		c.demand[j] = make([]int64, len(shardWeights))
	}
	return c, nil
}

// Links returns the coupler's shared links in declaration order.
func (c *Coupler) Links() []SharedLink { return c.links }

// Epoch returns the capacity-exchange window length.
func (c *Coupler) Epoch() time.Duration { return c.epoch }

// LinkIndex resolves a shared-link name, or -1.
func (c *Coupler) LinkIndex(name string) int {
	for i, l := range c.links {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// Report records one shard's offered and serialized bytes per shared link for
// the current window. It writes only the shard's own ledger slots and is safe
// to call concurrently from distinct shards.
func (c *Coupler) Report(shard int, offered, sent []uint64) {
	for j := range c.links {
		c.offered[j][shard] = offered[j]
		c.sent[j][shard] = sent[j]
	}
}

// Initial returns the epoch-0 allocation, before any demand has been
// observed: every shard gets its weight-proportional share of each link. The
// shape is [shard][link] admitted bits per second, matching Allocate.
func (c *Coupler) Initial() [][]int64 {
	out := c.emptyAllocs()
	for j := range c.links {
		byShard := SpreadHeadroom(c.links[j].RateBps, make([]int64, len(c.weights)), c.weights)
		for s := range c.weights {
			out[s][j] = byShard[s]
		}
	}
	return out
}

// Allocate closes the current window: it folds each shard's reported bytes
// into its peak-hold demand estimate, runs the Admit rule per link
// (probe-doubled weighted max-min for active shards, leftover-funded fair
// floors for the rest, grant-proportional headroom — shards in index order),
// raises each shard to the trickle floor, appends the window's EpochRecords
// to the trace and resets the ledger. The result is [shard][link] admitted
// bits per second for the next window.
func (c *Coupler) Allocate() [][]int64 {
	out := c.emptyAllocs()
	epochSec := c.epoch.Seconds()
	wsum := 0.0
	for _, w := range c.weights {
		if w <= 0 {
			w = 1
		}
		wsum += w
	}
	for j, l := range c.links {
		var offeredSum, sentSum uint64
		demands := c.demand[j]
		for s, b := range c.offered[j] {
			demands[s] = SmoothDemand(demands[s], int64(float64(b)*8/epochSec))
			offeredSum += b
			sentSum += c.sent[j][s]
		}
		final := Admit(l.RateBps, demands, c.weights)
		for s := range final {
			w := 1.0
			if s < len(c.weights) && c.weights[s] > 0 {
				w = c.weights[s]
			}
			if f := TrickleFloor(l.RateBps, epochSec, w, wsum); final[s] < f {
				final[s] = f
			}
		}
		rec := EpochRecord{Epoch: c.epochs, Link: j, OfferedBytes: offeredSum, SentBytes: sentSum}
		for s := range final {
			if demands[s] > final[s] {
				rec.Bottlenecked++
			}
		}
		rec.MinAllocBps, rec.MaxAllocBps = final[0], final[0]
		for _, a := range final[1:] {
			if a < rec.MinAllocBps {
				rec.MinAllocBps = a
			}
			if a > rec.MaxAllocBps {
				rec.MaxAllocBps = a
			}
		}
		c.trace = append(c.trace, rec)
		if c.OnEpoch != nil {
			c.OnEpoch(rec)
		}
		for s := range final {
			out[s][j] = final[s]
		}
		for s := range c.offered[j] {
			c.offered[j][s], c.sent[j][s] = 0, 0
		}
	}
	c.epochs++
	return out
}

// Epochs returns the number of completed (allocated) windows.
func (c *Coupler) Epochs() int { return c.epochs }

// Trace returns the per-epoch capacity records in (epoch, link) order.
func (c *Coupler) Trace() []EpochRecord { return c.trace }

func (c *Coupler) emptyAllocs() [][]int64 {
	out := make([][]int64, len(c.weights))
	for s := range out {
		out[s] = make([]int64, len(c.links))
	}
	return out
}
