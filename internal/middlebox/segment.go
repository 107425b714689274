package middlebox

import (
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
)

// Splitter resegments large payloads into MSS-sized pieces, copying the TCP
// options onto every resulting segment — exactly what the paper observed all
// twelve tested TSO NICs doing (§3.3.4). Because the DSS mapping describes an
// explicit (offset, length) range rather than "this segment", duplicated
// mappings remain correct.
type Splitter struct {
	// MSS is the maximum payload size of emitted segments.
	MSS int
	// Split counts how many segments were split.
	Split int
}

// NewSplitter creates a splitter with the given MSS.
func NewSplitter(mss int) *Splitter { return &Splitter{MSS: mss} }

// Process implements netem.Box.
func (s *Splitter) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	if s.MSS <= 0 || len(seg.Payload) <= s.MSS {
		ctx.Send(dir, seg)
		return
	}
	s.Split++
	payload := seg.Payload
	seq := seg.Seq
	for off := 0; off < len(payload); off += s.MSS {
		end := off + s.MSS
		if end > len(payload) {
			end = len(payload)
		}
		part := seg.CloneHeader()
		part.AttachPayload(pool.Copy(payload[off:end]))
		part.Seq = seq.Add(uint32(off))
		// Only the last fragment keeps FIN/PSH semantics.
		if end != len(payload) {
			part.Flags &^= packet.FlagFIN | packet.FlagPSH
		}
		ctx.Send(dir, part)
	}
	seg.Release() // fully replaced by its fragments
}

// Coalescer merges consecutive same-flow data segments into larger ones, as a
// traffic normalizer or proxy may do. TCP option space means only the first
// segment's options survive on the merged segment; the paper (§3.3.5) relies
// on the receiver acknowledging only the mapped bytes at the data level so
// the sender retransmits the bytes whose mapping was lost.
type Coalescer struct {
	// MaxBytes caps the coalesced payload size.
	MaxBytes int
	// Hold is the maximum number of segments merged into one.
	Hold int

	pending map[packet.FourTuple]*packet.Segment
	held    map[packet.FourTuple]int
	// Coalesced counts merge operations performed.
	Coalesced int
}

// NewCoalescer creates a coalescer that merges up to hold consecutive
// segments (but never beyond maxBytes of payload).
func NewCoalescer(hold, maxBytes int) *Coalescer {
	if hold < 2 {
		hold = 2
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 10
	}
	return &Coalescer{
		MaxBytes: maxBytes,
		Hold:     hold,
		pending:  make(map[packet.FourTuple]*packet.Segment),
		held:     make(map[packet.FourTuple]int),
	}
}

// Process implements netem.Box.
func (c *Coalescer) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	// Control segments flush any pending data for the flow and pass through.
	key := seg.Tuple()
	if len(seg.Payload) == 0 || seg.Flags.Has(packet.FlagSYN) || seg.Flags.Has(packet.FlagFIN) || seg.Flags.Has(packet.FlagRST) {
		c.flush(ctx, dir, key)
		ctx.Send(dir, seg)
		return
	}
	held, ok := c.pending[key]
	if !ok {
		c.pending[key] = seg.Clone()
		seg.Release() // the held clone takes over
		c.held[key] = 1
		// A normalizer does not hold data indefinitely: flush the pending
		// segment after a short delay if nothing merges with it.
		ctx.Sim().Schedule(2*time.Millisecond, func() { c.flush(ctx, dir, key) })
		return
	}
	// Only coalesce strictly consecutive in-sequence data; anything else is
	// flushed in order.
	if held.EndSeq() != seg.Seq || len(held.Payload)+len(seg.Payload) > c.MaxBytes {
		c.flush(ctx, dir, key)
		ctx.Send(dir, seg)
		return
	}
	held.Payload = append(held.Payload, seg.Payload...)
	// The merged segment keeps only the held segment's options: option
	// space cannot hold two full DSS mappings.
	seg.Release() // its bytes have been merged into the held segment
	c.held[key]++
	c.Coalesced++
	if c.held[key] >= c.Hold {
		c.flush(ctx, dir, key)
	}
}

// flush sends on the segment pending for key, if there is one.
func (c *Coalescer) flush(ctx netem.BoxContext, dir netem.Direction, key packet.FourTuple) {
	if held, ok := c.pending[key]; ok {
		delete(c.pending, key)
		delete(c.held, key)
		ctx.Send(dir, held)
	}
}

// HoleBlocker refuses to forward data that does not start exactly at the next
// expected sequence number, modelling the 5–11% of paths in the measurement
// study that do not pass data after a hole in the sequence space (§3.3).
type HoleBlocker struct {
	next    map[packet.FourTuple]packet.SeqNum
	Blocked int
}

// NewHoleBlocker creates the element.
func NewHoleBlocker() *HoleBlocker {
	return &HoleBlocker{next: make(map[packet.FourTuple]packet.SeqNum)}
}

// Process implements netem.Box.
func (h *HoleBlocker) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	key := seg.Tuple()
	expected, ok := h.next[key]
	switch {
	case seg.Flags.Has(packet.FlagSYN) || !ok:
		h.next[key] = seg.EndSeq()
	case len(seg.Payload) > 0 && expected.LessThan(seg.Seq):
		h.Blocked++
		seg.Release()
		return
	case expected.LessThan(seg.EndSeq()):
		h.next[key] = seg.EndSeq()
	}
	ctx.Send(dir, seg)
}
