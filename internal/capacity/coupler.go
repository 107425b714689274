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
	// allocation.
	Bottlenecked int
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
	// claims[link] holds each shard's weight — the sum of its tagged members'
	// weights, fixed at construction from the shard partition alone — and its
	// peak-hold demand, so one all-members-stalled window does not zero a
	// shard's claim (see SmoothDemand).
	claims []ledger

	offered [][]uint64 // [link][shard] bytes offered this window
	sent    [][]uint64 // [link][shard] bytes serialized this window
	allocs  [][]int64  // [shard][link] what Initial and Allocate return

	epochs int
	trace  []EpochRecord
}

// NewCoupler builds a coupler for the given shared links and per-shard
// weights, each positive and finite. All links must agree on the epoch length
// (a single barrier cadence drives the whole fleet); zero-epoch specs inherit
// DefaultEpoch first.
func NewCoupler(links []SharedLink, shardWeights []float64) (*Coupler, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("capacity: coupler needs at least one shared link")
	}
	if len(shardWeights) == 0 {
		return nil, fmt.Errorf("capacity: coupler needs at least one shard")
	}
	for s, w := range shardWeights {
		if !ValidWeight(w) {
			return nil, fmt.Errorf("capacity: shard %d weight %v is not positive and finite", s, w)
		}
	}
	ls := make([]SharedLink, len(links))
	seen := make(map[string]bool, len(links))
	for i, l := range links {
		l = l.WithDefaults()
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
		claims:  make([]ledger, len(ls)),
		offered: make([][]uint64, len(ls)),
		sent:    make([][]uint64, len(ls)),
		allocs:  make([][]int64, len(shardWeights)),
	}
	for j := range ls {
		for _, w := range shardWeights {
			c.claims[j].add(w)
		}
		c.offered[j] = make([]uint64, len(shardWeights))
		c.sent[j] = make([]uint64, len(shardWeights))
	}
	for s := range c.allocs {
		c.allocs[s] = make([]int64, len(ls))
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
// observed: the allocation step over zero demands, which gives every shard
// its weight-proportional share of each link. The shape is [shard][link]
// admitted bits per second, matching Allocate, and the slices are the
// coupler's own: valid until its next Initial or Allocate.
func (c *Coupler) Initial() [][]int64 {
	out := c.allocs
	for j, l := range c.links {
		cl := &c.claims[j]
		for s, a := range cl.step(l.RateBps, c.epoch.Seconds(), make([]int64, len(cl.demands))) {
			out[s][j] = a
		}
	}
	return out
}

// Allocate closes the current window: it folds each shard's reported bytes
// into its peak-hold demand estimate, runs the allocation step per link
// (admit across shards in index order, then the trickle floor), appends the
// window's EpochRecords to the trace and resets the ledger. The result is
// [shard][link] admitted bits per second for the next window, in slices the
// coupler reuses: valid until its next Initial or Allocate.
func (c *Coupler) Allocate() [][]int64 {
	out := c.allocs
	epochSec := c.epoch.Seconds()
	for j, l := range c.links {
		cl := &c.claims[j]
		rec := EpochRecord{Epoch: c.epochs, Link: j}
		for s, b := range c.offered[j] {
			cl.observe(s, b, epochSec)
			rec.OfferedBytes += b
			rec.SentBytes += c.sent[j][s]
			c.offered[j][s], c.sent[j][s] = 0, 0
		}
		for s, a := range cl.step(l.RateBps, epochSec, cl.demands) {
			if cl.demands[s] > a {
				rec.Bottlenecked++
			}
			out[s][j] = a
		}
		c.trace = append(c.trace, rec)
		if c.OnEpoch != nil {
			c.OnEpoch(rec)
		}
	}
	c.epochs++
	return out
}

// Epochs returns the number of completed (allocated) windows.
func (c *Coupler) Epochs() int { return c.epochs }

// Trace returns the per-epoch capacity records in (epoch, link) order.
func (c *Coupler) Trace() []EpochRecord { return c.trace }
