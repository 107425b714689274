package middlebox

import (
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// This file models actively hostile middleboxes — the far end of the §3
// spectrum. The boxes in rewrite.go and nat.go misunderstand MPTCP; the
// presets here are out to get it: DPI engines that strip its options from
// every segment (rewrite.go's OptionStripper, from the first SYN or switched
// on mid-stream), censorship-style RST injectors that terminate classified
// flows, and traffic policers that silently discard everything above a
// contracted rate. The protocol requirement they exercise is the paper's
// central robustness claim: under every one of them an MPTCP connection must
// either keep running (possibly on a subset of its paths) or degrade to a
// working regular TCP connection — never hang, never corrupt the byte stream.

// AdversaryPreset builds fresh adversarial middlebox chains for a two-path
// host, keyed by a short name usable from the CLI and experiment grids. It
// returns the chains for the primary and secondary path (fresh instances —
// the boxes are stateful, so presets must never be shared between members).
//
//	none      — clean paths
//	strip-syn — MPTCP options stripped from SYNs on both paths: the
//	            connection must fall back cleanly at the handshake
//	dpi       — every MPTCP option stripped from every segment on both
//	            paths from t=0 (handshake fallback with continued censorship)
//	dpi-mid   — the same stripping switched on at 1.5 s on the secondary
//	            path only: the connection must survive on the primary
//	rst       — RST injector kills MP_JOIN subflows on the secondary path
//	police    — token-bucket policer throttles the secondary path
func AdversaryPreset(name string) (primary, secondary []netem.Box, ok bool) {
	switch name {
	case "", "none":
		return nil, nil, true
	case "strip-syn":
		return []netem.Box{NewOptionStripper(true)}, []netem.Box{NewOptionStripper(true)}, true
	case "dpi":
		return []netem.Box{NewOptionStripper(false)}, []netem.Box{NewOptionStripper(false)}, true
	case "dpi-mid":
		return nil, []netem.Box{&OptionStripper{ActivateAt: 1500 * time.Millisecond}}, true
	case "rst":
		return nil, []netem.Box{NewRSTInjector(2)}, true
	case "police":
		return nil, []netem.Box{NewPolicer(1_500_000, 32<<10)}, true
	}
	return nil, nil, false
}

// AdversaryPresetNames lists the preset names in grid order.
func AdversaryPresetNames() []string {
	return []string{"none", "strip-syn", "dpi", "dpi-mid", "rst", "police"}
}

// canonicalTuple normalizes a segment's four-tuple so both directions of a
// flow share one classification entry.
func canonicalTuple(dir netem.Direction, seg *packet.Segment) packet.FourTuple {
	t := seg.Tuple()
	if dir == netem.BtoA {
		t = t.Reverse()
	}
	return t
}

// RSTInjector terminates MP_JOIN subflows by forging RST segments toward both
// endpoints, then blackholes the flow — the observed behaviour of censorship
// middleware and of some "flow-aware" security appliances. A flow is
// condemned once one of its segments carries an MP_JOIN option, so joined
// subflows are killed while the initial subflow survives: the connection must
// continue on the remaining path with the dead subflow's data reinjected.
type RSTInjector struct {
	// After lets this many segments of a condemned flow through before the
	// kill, so e.g. the handshake can complete before the axe falls.
	After int
	// Injected counts forged RSTs; Killed counts condemned flows.
	Injected int
	Killed   int

	flows map[packet.FourTuple]int // segments seen since the MP_JOIN; -1 = killed
}

// NewRSTInjector builds an injector that kills MP_JOIN subflows after
// letting `after` matching segments through.
func NewRSTInjector(after int) *RSTInjector {
	return &RSTInjector{After: after, flows: make(map[packet.FourTuple]int)}
}

// Process implements netem.Box.
func (r *RSTInjector) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	// Never interfere with RSTs.
	if seg.Flags.Has(packet.FlagRST) {
		ctx.Send(dir, seg)
		return
	}
	t := canonicalTuple(dir, seg)
	n, tracked := r.flows[t]
	if n == -1 {
		// Condemned flow: blackhole everything that is not a RST.
		seg.Release()
		return
	}
	if !tracked && seg.MPTCPOption(packet.SubMPJoin) == nil {
		ctx.Send(dir, seg)
		return
	}
	if n < r.After {
		r.flows[t] = n + 1
		ctx.Send(dir, seg)
		return
	}
	r.flows[t] = -1
	r.Killed++

	// Forge a RST toward the receiver (riding the segment's own coordinates,
	// so it lands exactly at the receive point)...
	fwd := packet.NewSegment()
	fwd.Src, fwd.Dst = seg.Src, seg.Dst
	fwd.Seq, fwd.Ack = seg.Seq, seg.Ack
	fwd.Flags = packet.FlagRST | packet.FlagACK
	ctx.Send(dir, fwd)
	// ...and one back toward the sender, built the way an endpoint answers an
	// unmatched segment.
	rev := packet.NewSegment()
	rev.Src, rev.Dst = seg.Dst, seg.Src
	rev.Seq, rev.Ack = seg.Ack, seg.EndSeq()
	rev.Flags = packet.FlagRST | packet.FlagACK
	ctx.Send(dir.Reverse(), rev)
	r.Injected += 2

	seg.Release()
}

// Policer is a token-bucket traffic policer: segments above the contracted
// rate are dropped outright (policing, not shaping — no queueing, no
// back-pressure signal). Each direction has its own bucket. Refill is
// computed from simulation-clock deltas, so the drop pattern is deterministic
// for a given traffic trace.
type Policer struct {
	// RateBps is the contracted rate in bits per second; BurstBytes is the
	// bucket depth (defaults to 16 KiB when zero).
	RateBps    int64
	BurstBytes int
	// Dropped counts policed segments; DroppedBytes their wire bytes.
	Dropped      int
	DroppedBytes int

	buckets [2]tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Duration
	primed bool
}

// NewPolicer builds a policer with the given rate and burst.
func NewPolicer(rateBps int64, burstBytes int) *Policer {
	if burstBytes <= 0 {
		burstBytes = 16 << 10
	}
	return &Policer{RateBps: rateBps, BurstBytes: burstBytes}
}

// Process implements netem.Box.
func (p *Policer) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	b := &p.buckets[dir]
	now := ctx.Sim().Now()
	if !b.primed {
		b.primed = true
		b.tokens = float64(p.BurstBytes)
		b.last = now
	}
	b.tokens += (now - b.last).Seconds() * float64(p.RateBps) / 8
	if b.tokens > float64(p.BurstBytes) {
		b.tokens = float64(p.BurstBytes)
	}
	b.last = now

	cost := float64(len(seg.Payload) + 20 + packet.OptionsWireLen(seg.Options) + netem.WireOverheadBytes)
	if cost <= b.tokens {
		b.tokens -= cost
		ctx.Send(dir, seg)
		return
	}
	p.Dropped++
	p.DroppedBytes += int(cost)
	seg.Release()
}
