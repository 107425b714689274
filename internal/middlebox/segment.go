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
func (s *Splitter) Process(_ netem.BoxContext, _ netem.Direction, seg *packet.Segment) []*packet.Segment {
	if s.MSS <= 0 || len(seg.Payload) <= s.MSS {
		return forward(seg)
	}
	s.Split++
	var out []*packet.Segment
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
		out = append(out, part)
	}
	seg.Release() // fully replaced by its fragments
	return out
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
func (c *Coalescer) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) []*packet.Segment {
	// Control segments flush any pending data for the flow and pass through.
	key := seg.Tuple()
	if len(seg.Payload) == 0 || seg.Flags.Has(packet.FlagSYN) || seg.Flags.Has(packet.FlagFIN) || seg.Flags.Has(packet.FlagRST) {
		return c.flushAnd(key, seg)
	}
	held, ok := c.pending[key]
	if !ok {
		c.pending[key] = seg.Clone()
		seg.Release() // the held clone takes over
		c.held[key] = 1
		// A normalizer does not hold data indefinitely: flush the pending
		// segment after a short delay if nothing merges with it.
		ctx.Sim().Schedule(2*time.Millisecond, func() {
			if still, ok := c.pending[key]; ok && still != nil {
				delete(c.pending, key)
				delete(c.held, key)
				ctx.Inject(dir, still)
			}
		})
		return nil
	}
	// Only coalesce strictly consecutive in-sequence data; anything else is
	// flushed in order.
	if held.EndSeq() != seg.Seq || len(held.Payload)+len(seg.Payload) > c.MaxBytes {
		return c.flushAnd(key, seg)
	}
	held.Payload = append(held.Payload, seg.Payload...)
	// The merged segment keeps only the held segment's options: option
	// space cannot hold two full DSS mappings.
	seg.Release() // its bytes have been merged into the held segment
	c.held[key]++
	c.Coalesced++
	if c.held[key] >= c.Hold {
		return c.flushAnd(key, nil)
	}
	return nil
}

// flushAnd emits any pending segment for key followed by seg (which may be
// nil, or may itself become the new pending segment when it carried data).
func (c *Coalescer) flushAnd(key packet.FourTuple, seg *packet.Segment) []*packet.Segment {
	var out []*packet.Segment
	if held, ok := c.pending[key]; ok {
		delete(c.pending, key)
		delete(c.held, key)
		out = append(out, held)
	}
	if seg != nil {
		out = append(out, seg)
	}
	return out
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
func (h *HoleBlocker) Process(_ netem.BoxContext, _ netem.Direction, seg *packet.Segment) []*packet.Segment {
	key := seg.Tuple()
	if seg.Flags.Has(packet.FlagSYN) {
		h.next[key] = seg.EndSeq()
		return forward(seg)
	}
	expected, ok := h.next[key]
	if !ok {
		h.next[key] = seg.EndSeq()
		return forward(seg)
	}
	if len(seg.Payload) > 0 && expected.LessThan(seg.Seq) {
		h.Blocked++
		seg.Release()
		return nil
	}
	if expected.LessThan(seg.EndSeq()) {
		h.next[key] = seg.EndSeq()
	}
	return forward(seg)
}
