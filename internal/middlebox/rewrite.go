package middlebox

import (
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// SeqRewriter adds a fixed offset to the sequence numbers of client-to-server
// traffic (and fixes up the acknowledgements flowing back), modelling the
// firewalls the measurement study found on 10% of paths that "improve" TCP
// initial sequence number randomization (§3.3). MPTCP's data sequence
// mappings are expressed as offsets from the subflow ISN precisely so that
// this rewriting is harmless.
type SeqRewriter struct {
	// Offset is added to AtoB sequence numbers; BtoA acknowledgements are
	// shifted back by the same amount. A per-flow random offset is chosen
	// when Offset is zero.
	Offset uint32
	// perFlow remembers the offset applied to each flow.
	perFlow map[packet.FourTuple]uint32
	seed    uint32
}

// NewSeqRewriter builds a sequence rewriter. A zero offset means "random per
// flow".
func NewSeqRewriter(offset uint32) *SeqRewriter {
	return &SeqRewriter{Offset: offset, perFlow: make(map[packet.FourTuple]uint32), seed: 0x5eed1234}
}

func (r *SeqRewriter) offsetFor(t packet.FourTuple) uint32 {
	if off, ok := r.perFlow[t]; ok {
		return off
	}
	off := r.Offset
	if off == 0 {
		r.seed = r.seed*1664525 + 1013904223
		off = r.seed | 1
	}
	r.perFlow[t] = off
	return off
}

// Process implements netem.Box.
func (r *SeqRewriter) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	if dir == netem.AtoB {
		off := r.offsetFor(seg.Tuple())
		seg.Seq = seg.Seq.Add(off)
		ctx.Send(dir, seg)
		return
	}
	// Reverse direction: the ACK field refers to the rewritten client
	// sequence space; shift it back so the client sees consistent numbers.
	off := r.offsetFor(seg.Tuple().Reverse())
	if off != 0 && seg.Flags.Has(packet.FlagACK) {
		seg.Ack = seg.Ack.Add(^off + 1) // subtract offset modulo 2^32
	}
	ctx.Send(dir, seg)
}

// OptionStripper removes MPTCP options, modelling the 6–14% of paths in the
// measurement study that strip unknown options from SYNs (and the smaller set
// that strip them from all segments), and the DPI engines that start doing so
// mid-stream. With ActivateAt zero and SYNOnly false it censors from the first
// SYN, so the connection never negotiates MPTCP and falls back cleanly at the
// handshake ("no MP_CAPABLE in SYN/ACK"). A later ActivateAt lets the
// handshake succeed and then strips mid-stream — the harder case, which the
// passive opener detects via the first-option-less-segment rule and which
// otherwise degenerates into unmapped data handled by connection-level
// retransmission.
type OptionStripper struct {
	// SYNOnly limits stripping to SYN segments (the common case observed in
	// the study; data-segment stripping without SYN stripping was never
	// observed).
	SYNOnly bool
	// ActivateAt is the simulation time at which stripping begins; before it
	// segments pass untouched.
	ActivateAt time.Duration
	// Removed counts stripped options.
	Removed int
}

// NewOptionStripper removes all MPTCP options from the start, from SYNs only
// when synOnly is true.
func NewOptionStripper(synOnly bool) *OptionStripper {
	return &OptionStripper{SYNOnly: synOnly}
}

func isMPTCP(o packet.Option) bool { return o.Kind() == packet.OptMPTCP }

// Process implements netem.Box.
func (o *OptionStripper) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	if ctx.Sim().Now() >= o.ActivateAt && (!o.SYNOnly || seg.Flags.Has(packet.FlagSYN)) {
		o.Removed += seg.RemoveOptions(isMPTCP)
	}
	ctx.Send(dir, seg)
}
