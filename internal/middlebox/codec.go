package middlebox

import (
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
)

// Reserializer models a middlebox that reconstructs every packet from its
// wire representation — the behaviour of any proxy, normalizer or DPI engine
// that terminates the raw packet and re-emits it. Each segment is serialized
// through the unified wire codec (packet.Encode) and parsed back
// (packet.Decode), so anything the in-memory representation carries that the
// RFC 793/6824 wire format cannot express is stripped here, exactly as it
// would be on a real path. Running the middlebox matrix with a Reserializer
// on-path is the proof that the emulator's in-memory segments and their wire
// form cannot diverge.
//
// Simulator bookkeeping that lives outside the wire format (SentAt, Ordinal)
// is carried across explicitly, the same way a real box preserves timing by
// forwarding promptly.
type Reserializer struct {
	// Reserialized counts segments that made the round trip.
	Reserialized int
	// Errors counts segments the codec rejected; they are forwarded
	// unmodified rather than dropped. The emulated stacks emit only
	// wire-expressible segments, so any nonzero count indicates an
	// emulator bug.
	Errors int
}

// NewReserializer creates the element.
func NewReserializer() *Reserializer { return &Reserializer{} }

// Process implements netem.Box.
func (r *Reserializer) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	wire, err := packet.Encode(seg)
	if err != nil {
		r.Errors++
		ctx.Send(dir, seg)
		return
	}
	out, err := packet.Decode(seg.Src.Addr, seg.Dst.Addr, wire)
	if err != nil {
		packet.ReleaseWire(wire)
		r.Errors++
		ctx.Send(dir, seg)
		return
	}
	// The decoded segment borrows its payload from the wire buffer; give it
	// a pool-owned copy so the wire buffer can be recycled immediately.
	if len(out.Payload) > 0 {
		out.AttachPayload(pool.Copy(out.Payload))
	}
	out.SentAt, out.Ordinal = seg.SentAt, seg.Ordinal
	packet.ReleaseWire(wire)
	seg.Release()
	r.Reserialized++
	ctx.Send(dir, out)
}
