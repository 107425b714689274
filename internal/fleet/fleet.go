// Package fleet is the sharded scenario engine for thousand-connection
// workloads: it partitions a many-member workload (closed-loop HTTP clients,
// incast senders, MPTCP/TCP traffic pairs) into independent shards, runs the
// shards in parallel across a worker pool, and merges the per-shard results
// deterministically.
//
// Each shard owns a private experiments.World — simulator, netem graph (built
// from an immutable spec slice) and one core.Manager per shard host; shards
// share nothing mutable — only the spec they were derived from and the
// concurrency-safe buffer pools. A shard's RNG seed is derived from the root
// seed and the shard index alone (sim.DeriveSeed), and merging walks shards
// in index order, so the merged output is byte-identical at any worker count.
// The shard count, by contrast, is part of the scenario: it decides how the
// workload is partitioned (how many clients share one server replica), the
// same way the machine count does in a real fleet.
package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/sim"
)

// DefaultMembersPerShard sizes the default partition: one shard per 64
// workload members, which keeps per-shard simulations small enough to
// overlap well while leaving each server replica a meaningful concurrent
// load.
const DefaultMembersPerShard = 64

// DefaultDeadline bounds a shard's simulated time when the workload has a
// completion condition (all requests served, all blocks transferred).
const DefaultDeadline = 10 * time.Minute

// Shard is the per-shard execution context handed to a scenario: the global
// member range the shard owns, its derived seed, and — after Materialize —
// the shard's World: its private simulator, network, MPTCP stacks and
// observers. Scenarios check Capture.EncodeErrors in Collect; the recorder's
// member range is the shard's [Lo, Hi).
type Shard struct {
	// Index identifies the shard within the fleet.
	Index int
	// Seed is the shard's RNG seed, derived from the root seed and Index.
	Seed uint64
	// Lo and Hi delimit the global member indices [Lo, Hi) this shard owns.
	Lo, Hi int

	experiments.World

	// obs is what the run observes, set by Run before Setup; graph is the
	// spec Materialize built, whose shared tags the capacity meter reads.
	obs   Observers
	graph netem.GraphSpec
}

// Members returns the number of workload members the shard owns.
func (sh *Shard) Members() int { return sh.Hi - sh.Lo }

// Materialize builds the shard's World from a graph spec, seeded with the
// shard seed: the world attaches the run's capture (<prefix>-shard<NNN>.pcap)
// and a flight recorder over the shard's member range from t=0 — the one
// place those observers meet a shard. The merged trace stream (shard-index
// order, members ascending within a shard) is byte-identical at any worker
// count, and the recorder's own timer events are self-counted so probeEvents
// can subtract them. Run stops the world and finishes the observers on every
// path.
func (sh *Shard) Materialize(spec netem.GraphSpec) error {
	o := &sh.obs
	var name string
	if o.PcapDir != "" {
		name = fmt.Sprintf("%s-shard%03d", o.prefix, sh.Index)
	}
	w, err := experiments.NewWorld(sh.Seed, spec, o.PcapDir, o.Trace, name, sh.Lo, sh.Members())
	if err != nil {
		return fmt.Errorf("fleet: shard %d: %w", sh.Index, err)
	}
	sh.World, sh.graph = w, spec
	return nil
}

// finish ends a collected shard: its world stops (a capture flush error fails
// the shard) and the shard adds its event and segment totals to the run's
// telemetry plane, if one is attached.
func (sh *Shard) finish() error {
	if err := sh.Stop(); err != nil {
		return err
	}
	sh.obs.Telemetry.AddShard(sh.Sim.Processed, sh.segmentsSent())
	return nil
}

// Manager returns the MPTCP stack of the named shard host, or nil.
func (sh *Shard) Manager(host string) *core.Manager { return sh.Managers[host] }

// probeEvents returns Sim.Processed minus the recorder's own sampler firings, so
// the "events" column a scenario reports is identical with and without the
// flight recorder attached.
func (sh *Shard) probeEvents() uint64 {
	return sh.Sim.Processed - sh.Probe.TimerEvents()
}

// segmentsSent totals the wire segments serialized by every directional link
// of the shard's network — the per-shard numerator of the fleet-wide
// segments-per-second rate that BenchmarkFleetSegmentRate reports.
func (sh *Shard) segmentsSent() uint64 {
	if sh.Net == nil {
		return 0
	}
	var n uint64
	for _, p := range sh.Net.Paths {
		n += p.LinkAB().Stats().SentPackets + p.LinkBA().Stats().SentPackets
	}
	return n
}

// stepUntil steps the shard's simulator until done reports true, the event
// queue drains, or the simulated deadline passes — whichever comes first —
// so a shard stops the moment its last member finishes instead of idling to
// the deadline.
func (sh *Shard) stepUntil(deadline time.Duration, done func() bool) {
	s := sh.Sim
	span := sh.obs.Telemetry.StartSpan("shard-step")
	for !done() && s.Now() < deadline && s.Step() {
	}
	span.End()
	// Bring lazily-settled counters (virtual link dequeues) up to the exact
	// stop point before Collect reads Sim.Processed or link stats.
	s.Settle()
}

// plan normalizes a (members, shards) request: shards defaults to one per
// DefaultMembersPerShard members and is clamped to [1, members].
func plan(members, shards int) (int, error) {
	if members <= 0 {
		return 0, fmt.Errorf("fleet: workload has no members")
	}
	if shards <= 0 {
		shards = (members + DefaultMembersPerShard - 1) / DefaultMembersPerShard
	}
	if shards > members {
		shards = members
	}
	return shards, nil
}

// MakeShards partitions members workload items into count contiguous shards
// (balanced: the first members%count shards hold one extra item) and derives
// each shard's seed from the root seed. count <= 0 selects the default
// partition. The descriptors depend only on (root, members, count).
func MakeShards(root uint64, members, count int) ([]Shard, error) {
	count, err := plan(members, count)
	if err != nil {
		return nil, err
	}
	shards := make([]Shard, count)
	base, extra := members/count, members%count
	lo := 0
	for i := range shards {
		n := base
		if i < extra {
			n++
		}
		shards[i] = Shard{
			Index: i,
			Seed:  sim.DeriveSeed(root, uint64(i)),
			Lo:    lo,
			Hi:    lo + n,
		}
		lo += n
	}
	return shards, nil
}
