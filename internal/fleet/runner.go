package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/telemetry"
)

// Observers bundles the three passive observers a run can attach. Capture
// and recorder shard with the workload and are attached by Shard.Materialize
// through the shard's experiments.World; the telemetry plane is fleet-wide
// and each shard adds to it when it finishes. None of them can change a
// merged result (TestTraceChangesNothing, TestTelemetryChangesNothing,
// TestFleetPcapCapture).
type Observers struct {
	// PcapDir, when non-empty, captures every shard's wire traffic into
	// <PcapDir>/<scenario>-shard<NNN>.pcap (classic pcap, raw IPv4).
	PcapDir string
	// Trace enables the flight recorder: typed events, per-member counters
	// and per-subflow samples written to <Trace.Dir>/<scenario>-trace.json
	// and -events.jsonl.
	Trace experiments.TraceSpec
	// Telemetry, when non-nil, attaches the run to a telemetry plane:
	// phase-profiler spans and each finished shard's event and segment
	// totals.
	Telemetry *telemetry.Plane

	// prefix names the observer files; Run defaults it to the scenario id.
	// Only ChaosSpec.CaptureName overrides it.
	prefix string
}

// Common is the part of a scenario spec the runner owns; every spec embeds
// it. Specs are immutable once Run starts: shards read them concurrently.
type Common struct {
	// Seed is the root RNG seed; every shard derives its own seed from it.
	Seed uint64
	// Shards partitions the members (0 = one shard per DefaultMembersPerShard).
	// The shard count is part of the scenario; the worker count is not.
	Shards int
	// Workers bounds the parallel shard executions (0 = GOMAXPROCS; never
	// changes the output).
	Workers int
	// Deadline caps each shard's simulated time (0 = the scenario's default).
	Deadline time.Duration
	// Label overrides the result title; Quick is recorded in the metadata.
	Label string
	Quick bool
	// Shared, when non-nil, declares one fleet-global bottleneck: the link
	// directions the scenario tags with its name jointly respect its rate,
	// and the shards run in lock-stepped epoch windows instead of
	// free-running. Scenarios that tag nothing reject it.
	Shared *capacity.SharedLink
	// Weight gives member i's allocation weight on the shared bottleneck (nil
	// = equal weights; a shard's weight is the sum of its members'); ignored
	// when Shared is nil. Run fails on a weight that is not positive and
	// finite, naming the member.
	Weight func(i int) float64
	Observers
}

// withDefaults resolves the runner-owned fields; deadline is the embedding
// scenario's default simulated-time cap. Every spec's withDefaults calls it,
// so a scenario sees the same resolved values the runner does.
func (c Common) withDefaults(deadline time.Duration) Common {
	if c.Deadline <= 0 {
		c.Deadline = deadline
	}
	if c.Shared != nil {
		shared := c.Shared.WithDefaults()
		c.Shared = &shared
	}
	return c
}

// sharedTag is the name a scenario tags shared link directions with where it
// builds its graph: the declared bottleneck's, or "" (untagged) without one.
func (c *Common) sharedTag() string {
	if c.Shared == nil {
		return ""
	}
	return c.Shared.Name
}

// Scenario is the one contract a fleet scenario implements. S is a shard's
// live workload state, T its contribution to the merged result.
type Scenario[S any, T any] interface {
	// Setup materializes one shard (graph, servers, workload) without running
	// it and returns the shard's state.
	Setup(sh *Shard) (S, error)
	// Done reports whether the shard's workload has fully settled.
	Done(st S) bool
	// Collect finalizes one shard after its last step and returns its merge
	// contribution.
	Collect(sh *Shard, st S) (T, error)
}

// Run is the one way to run a scenario: it partitions members into shards
// (Common.Shards, 0 = default partition), runs scn on every shard across up
// to Common.Workers goroutines, hands the per-shard outputs — in shard-index
// order — to render, which fills the result's tables and series, and writes
// the flight-recorder files when the run is traced. c must already be
// resolved by Common.withDefaults. A scenario must treat everything outside
// its Shard as immutable; under that contract the outputs, and anything
// rendered from them in shard order, are identical at any worker count.
//
// How shards advance depends on one observable input, whether the run
// declares a shared link:
//
//   - Without one, shards are independent, so each is set up, stepped until
//     Done (or the deadline) and collected inside a single worker task. A
//     shard stops on the first step after its last member settles, and no
//     more than Workers shards are materialized at once.
//   - With one, every shard is set up first and then all advance in
//     lock-stepped epoch windows (see epochs), because the capacity exchange
//     needs every shard's demand at each boundary.
//
// Run owns the worlds' lifetime: every shard's world is closed — its retired
// connections recycled, its pool front flushed, its capture closed, its free
// lists handed to the next world (experiments.World.Close) — on every path,
// including a failing Setup, step or Collect on any shard.
func Run[S any, T any](c Common, id, title string, members int, scn Scenario[S, T],
	render func(res *experiments.Result, outs []T)) (*experiments.Result, error) {

	shards, err := MakeShards(c.Seed, members, c.Shards)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, id)
	}
	if c.prefix == "" {
		c.prefix = id
	}
	for i := range shards {
		shards[i].obs = c.Observers
	}
	if c.Label != "" {
		title = c.Label
	}

	var outs []T
	var coupler *capacity.Coupler
	if c.Shared == nil {
		outs, err = experiments.SweepWorkers(len(shards), c.Workers, func(i int) (T, error) {
			sh := &shards[i]
			defer sh.Close()
			st, err := setup(sh, scn)
			if err != nil {
				var zero T
				return zero, err
			}
			sh.stepUntil(c.Deadline, func() bool { return scn.Done(st) })
			return collect(sh, scn, st)
		})
	} else {
		outs, coupler, err = epochs(&c, shards, scn)
	}
	if err != nil {
		return nil, err
	}

	res := &experiments.Result{ID: id, Title: title, Seed: c.Seed, Quick: c.Quick}
	mergeSpan := c.Telemetry.StartSpan("merge")
	render(res, outs)
	if coupler != nil {
		addCapacityReport(res, coupler)
	}
	mergeSpan.End()
	if c.Trace.Enabled() {
		recs := make([]*probe.Recorder, len(shards))
		for i := range shards {
			recs[i] = shards[i].Probe
		}
		if err := experiments.WriteTraceFiles(c.Trace, c.prefix, title, c.Seed, c.Quick, recs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setup runs a scenario's Setup under the build-graph span and arms what the
// runner owns once the workload exists: the recorder's sampler, which stops
// with the workload.
func setup[S any, T any](sh *Shard, scn Scenario[S, T]) (S, error) {
	span := sh.obs.Telemetry.StartSpan("build-graph")
	st, err := scn.Setup(sh)
	span.End()
	if err != nil {
		return st, err
	}
	sh.Probe.StartSampler(func() bool { return scn.Done(st) })
	return st, nil
}

// collect runs a scenario's Collect and ends the shard's observation.
func collect[S any, T any](sh *Shard, scn Scenario[S, T], st S) (T, error) {
	out, err := scn.Collect(sh, st)
	if err != nil {
		return out, err
	}
	return out, sh.finish()
}

// memberWeights checks every member's weight and sums them per shard in the
// partition — the coupler's per-shard allocation weights. Weights depend only
// on the global member indices, so they are invariant across worker counts
// and, summed, consistent across shard counts.
func memberWeights(shards []Shard, weight func(i int) float64) ([]float64, error) {
	ws := make([]float64, len(shards))
	for i, d := range shards {
		if weight == nil {
			ws[i] = float64(d.Members())
			continue
		}
		for gi := d.Lo; gi < d.Hi; gi++ {
			w := weight(gi)
			if !capacity.ValidWeight(w) {
				return nil, fmt.Errorf("fleet: member %d: shared-link weight %v is not positive and finite", gi, w)
			}
			ws[i] += w
		}
	}
	return ws, nil
}

// epochs is Run's coupled half: every shard is built once and then all are
// driven through lock-stepped epoch windows of the shared link's length. Per
// window each shard (on the worker pool) applies its admitted rates,
// simulates exactly one epoch of virtual time, and reports the bytes its
// tagged links offered; at the barrier the coupler's deterministic allocator
// computes the next window's admitted rates. The loop ends at the deadline or
// at the first boundary where every shard is Done.
//
// Worker-count invariance is preserved by construction: the barrier orders
// every Report before the Allocate that reads it, Report writes only
// shard-indexed slots, and the allocator iterates shards in index order — so
// the allocation sequence, and therefore every shard's simulation, depends
// only on (epoch, shard index, offered bytes), never on how shard steps
// interleave across workers.
func epochs[S any, T any](c *Common, shards []Shard, scn Scenario[S, T]) ([]T, *capacity.Coupler, error) {
	n := len(shards)
	weights, err := memberWeights(shards, c.Weight)
	if err != nil {
		return nil, nil, err
	}
	coupler, err := capacity.NewCoupler([]capacity.SharedLink{*c.Shared}, weights)
	if err != nil {
		return nil, nil, err
	}
	if c.Trace.Enabled() {
		// Epoch allocations are fleet-global; record them once, on the first
		// shard's recorder against its first member. They carry
		// shard-aggregate state, so they are part of the worker-count
		// byte-identity contract but not the shard-count one. The recorder is
		// written by shard 0's Setup and read here on the allocator goroutine;
		// the worker-pool join between them is the happens-before edge.
		coupler.OnEpoch = func(r capacity.EpochRecord) {
			rec := shards[0].Probe
			rec.Emit(rec.Lo(), probe.KindEpochAlloc, -1, int32(r.Link), int64(r.Epoch), int64(r.Bottlenecked))
			if r.Bottlenecked > 0 {
				rec.Count(rec.Lo(), probe.CtrEpochCongested, 1)
			}
		}
	}
	// Shards outlive their worker tasks here, so one deferred sweep closes
	// every world, collected or left by a failing path. It runs after the
	// last worker-pool join, so no shard is being stepped.
	defer func() {
		for i := range shards {
			shards[i].Close()
		}
	}()

	states := make([]S, n)
	meters := make([]*capacity.Meter, n)
	if _, err := experiments.SweepWorkers(n, c.Workers, func(i int) (struct{}, error) {
		sh := &shards[i]
		st, err := setup(sh, scn)
		if err != nil {
			return struct{}{}, err
		}
		var weightOf func(i int) float64
		if c.Weight != nil {
			// One link per member, in member order: spec link i is member Lo+i.
			weightOf = func(i int) float64 { return c.Weight(sh.Lo + i) }
		}
		m, err := capacity.NewMeter(coupler, sh.Net, sh.graph, weightOf)
		if err != nil {
			return struct{}{}, fmt.Errorf("fleet: shard %d: %w", sh.Index, err)
		}
		if m.Members(0) == 0 {
			// A bottleneck nothing transits would be silently unenforced.
			return struct{}{}, fmt.Errorf("fleet: shard %d tags no link direction with shared link %q", sh.Index, c.Shared.Name)
		}
		states[i], meters[i] = st, m
		return struct{}{}, nil
	}); err != nil {
		return nil, nil, err
	}

	epoch := coupler.Epoch()
	allocs := coupler.Initial()
	for boundary := epoch; ; boundary += epoch {
		if boundary > c.Deadline {
			boundary = c.Deadline
		}
		end := boundary
		barrier := c.Telemetry.StartSpan("epoch-barrier")
		if _, err := experiments.SweepWorkers(n, c.Workers, func(i int) (struct{}, error) {
			meters[i].Apply(allocs[i])
			if err := shards[i].Sim.RunUntil(end); err != nil {
				return struct{}{}, fmt.Errorf("fleet: shard %d: %w", i, err)
			}
			offered, sent := meters[i].Collect()
			coupler.Report(i, offered, sent)
			return struct{}{}, nil
		}); err != nil {
			return nil, nil, err
		}
		barrier.End()
		// Barrier passed: every shard's Report for this window happened
		// before this Allocate (worker-pool join), so the allocation is a
		// pure function of the ledger.
		allocate := c.Telemetry.StartSpan("allocate")
		allocs = coupler.Allocate()
		allocate.End()
		if boundary >= c.Deadline {
			break
		}
		settled := true
		for i := range states {
			if !scn.Done(states[i]) {
				settled = false
				break
			}
		}
		if settled {
			break
		}
	}

	outs, err := experiments.SweepWorkers(n, c.Workers, func(i int) (T, error) {
		return collect(&shards[i], scn, states[i])
	})
	return outs, coupler, err
}
