package capacity

import (
	"fmt"

	"mptcpgo/internal/faults"
	"mptcpgo/internal/netem"
)

// memberLink is one tagged link direction owned by a shard: the directional
// link, its pre-coupling configuration (the restore point for every swap),
// and the byte counters at the last collection.
type memberLink struct {
	link        *netem.Link
	orig        netem.LinkConfig
	lastOffered uint64
	lastSent    uint64
}

// Meter is the shard-local side of the capacity exchange. It is built after
// the shard materializes its network, from the SharedAB/SharedBA tags on the
// shard's graph spec: for every coupler link it holds the member link
// directions that transit the resource. Each epoch the fleet engine calls
// Apply (cap the members to the shard's admitted rate), runs the window, and
// calls Collect (read back the members' offered/sent byte deltas).
//
// Apply subdivides the shard's admitted rate across its members with the same
// allocation step the coupler uses across shards, so the two-level allocation
// degenerates to the flat one when every shard holds one member. Caps land as
// link-config swaps through faults.CapRate — the rate squeeze transform —
// against the member's original configuration, so a member whose own rate is
// below its share keeps its own rate.
type Meter struct {
	c       *Coupler
	members [][]*memberLink // [coupler link index] -> tagged members, spec order
	claims  []ledger        // [coupler link index] -> members' weights and demands
	offered []uint64        // scratch reused by Collect
	sent    []uint64
}

// NewMeter scans the graph spec's shared tags against the built network
// (spec.Links[i] corresponds to n.Paths[i]) and returns the shard's meter.
// weightOf supplies the member weight for spec link index i (nil = 1), which
// the caller has checked is positive and finite; both directions of a
// doubly-tagged link count as distinct members. Tags naming no coupler link
// are an error — a silently ignored tag would let a scenario believe a
// bottleneck is enforced when it is not.
func NewMeter(c *Coupler, n *netem.Network, spec netem.GraphSpec, weightOf func(i int) float64) (*Meter, error) {
	m := &Meter{
		c:       c,
		members: make([][]*memberLink, len(c.links)),
		claims:  make([]ledger, len(c.links)),
		offered: make([]uint64, len(c.links)),
		sent:    make([]uint64, len(c.links)),
	}
	add := func(tag string, l *netem.Link, i int) error {
		if tag == "" {
			return nil
		}
		j := c.LinkIndex(tag)
		if j < 0 {
			return fmt.Errorf("capacity: link %d tagged with unknown shared resource %q", i, tag)
		}
		w := 1.0
		if weightOf != nil {
			w = weightOf(i)
		}
		m.members[j] = append(m.members[j], &memberLink{link: l, orig: l.Config()})
		m.claims[j].add(w)
		return nil
	}
	for i, ls := range spec.Links {
		p := n.Paths[i]
		if err := add(ls.SharedAB, p.LinkAB(), i); err != nil {
			return nil, err
		}
		if err := add(ls.SharedBA, p.LinkBA(), i); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Members returns how many link directions the shard contributes to coupler
// link j.
func (m *Meter) Members(j int) int { return len(m.members[j]) }

// Apply caps the shard's tagged members so their rates sum to the shard's
// admitted allocation: allocs[j] bits per second for coupler link j (the
// shard's row of Coupler.Allocate). Members split each allocation with the
// same allocation step the coupler uses across shards; each member then runs
// at min(own configured rate, member share) until the next swap.
func (m *Meter) Apply(allocs []int64) {
	for j, members := range m.members {
		if len(members) == 0 {
			continue
		}
		cl := &m.claims[j]
		for i, share := range cl.step(allocs[j], m.c.epoch.Seconds(), cl.demands) {
			members[i].link.SetConfig(capLink(members[i].orig, share))
		}
	}
}

// capLink derives a member's epoch configuration: the rate cap via
// faults.CapRate, plus a queue scaled down in proportion so the member keeps
// the same *milliseconds* of buffering it was provisioned with. Preserving
// the byte queue of a 250 ms buffer across a deep rate cap would turn it into
// seconds of bufferbloat — TCP then oscillates between queue-overflow bursts
// and retransmission stalls and never fills its admitted rate. A floor of a
// few full-size segments keeps slow-started flows from starving outright.
func capLink(orig netem.LinkConfig, bps int64) netem.LinkConfig {
	cfg := faults.CapRate(orig, bps)
	if cfg.RateBps < orig.RateBps && orig.RateBps > 0 && orig.QueueBytes > 0 {
		q := int(float64(orig.QueueBytes) * float64(cfg.RateBps) / float64(orig.RateBps))
		if min := 16 * 1500; q < min {
			q = min
		}
		if q < orig.QueueBytes {
			cfg.QueueBytes = q
		}
	}
	return cfg
}

// Collect reads every member's offered and serialized byte deltas since the
// previous Collect, refreshes the member demand signals, and returns the
// per-coupler-link sums (slices owned by the meter, valid until the next
// call) — the arguments for Coupler.Report.
func (m *Meter) Collect() (offered, sent []uint64) {
	epochSec := m.c.epoch.Seconds()
	for j, members := range m.members {
		var off, snt uint64
		for i, ml := range members {
			st := ml.link.Stats()
			dOff := st.OfferedBytes - ml.lastOffered
			dSnt := st.SentBytes - ml.lastSent
			ml.lastOffered, ml.lastSent = st.OfferedBytes, st.SentBytes
			m.claims[j].observe(i, dOff, epochSec)
			off += dOff
			snt += dSnt
		}
		m.offered[j], m.sent[j] = off, snt
	}
	return m.offered, m.sent
}
