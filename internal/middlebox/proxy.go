package middlebox

import (
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// ProactiveACKer models a transparent performance-enhancing proxy that
// acknowledges data on behalf of the receiver as it passes. The study found
// that 26–33% of paths have boxes that will not correctly pass ACKs for data
// they have not seen; proactive ACKing is also the behaviour that makes
// payload-encoded DATA_ACKs unsafe (§3.3.3) because the proxy treats them as
// ordinary payload.
//
// Like a real performance-enhancing proxy, the element takes responsibility
// for the data it acknowledges: it keeps a copy of acked segments and
// retransmits them when the real receiver's duplicate ACKs reveal a hole
// (otherwise end-to-end recovery would be impossible, since the sender
// believes the data was delivered).
type ProactiveACKer struct {
	// Acked counts proxy-generated acknowledgements.
	Acked int
	// Retransmitted counts proxy-driven retransmissions.
	Retransmitted int
	// ackState tracks the highest sequence acked per flow.
	ackState map[packet.FourTuple]packet.SeqNum
	// buffered holds copies of acked payload segments per flow, keyed by
	// their starting sequence number.
	buffered map[packet.FourTuple]map[packet.SeqNum]*packet.Segment
	// dupCounts tracks repeated receiver ACK values (hole indication).
	dupCounts map[packet.FourTuple]map[packet.SeqNum]int
}

// NewProactiveACKer creates the element.
func NewProactiveACKer() *ProactiveACKer {
	return &ProactiveACKer{
		ackState:  make(map[packet.FourTuple]packet.SeqNum),
		buffered:  make(map[packet.FourTuple]map[packet.SeqNum]*packet.Segment),
		dupCounts: make(map[packet.FourTuple]map[packet.SeqNum]int),
	}
}

// Name implements netem.Box.
func (p *ProactiveACKer) Name() string { return "proactive-ack" }

// Process implements netem.Box.
func (p *ProactiveACKer) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) []*packet.Segment {
	if len(seg.Payload) > 0 && !seg.Flags.Has(packet.FlagSYN) && !seg.Flags.Has(packet.FlagRST) {
		key := seg.Tuple()
		end := seg.EndSeq()
		if p.buffered[key] == nil {
			p.buffered[key] = make(map[packet.SeqNum]*packet.Segment)
		}
		p.buffered[key][seg.Seq] = seg.Clone()
		// Acknowledge only data that is contiguous from the proxy's point of
		// view: a proxy never acknowledges segments it has not seen, so a
		// loss upstream of the proxy leaves normal end-to-end recovery in
		// charge.
		prev, seen := p.ackState[key]
		if !seen {
			p.ackState[key] = end
		} else if seg.Seq.LessThanEq(prev) && prev.LessThan(end) {
			p.ackState[key] = end
		}
		if cur := p.ackState[key]; !seen || prev.LessThan(cur) {
			// Proxy-generated ACKs go through the segment pool like any other
			// traffic so their lifecycle matches endpoint segments.
			ack := packet.NewSegment()
			ack.Src, ack.Dst = seg.Dst, seg.Src
			ack.Seq, ack.Ack = seg.Ack, cur
			ack.Flags = packet.FlagACK
			ack.Window = 65535
			p.Acked++
			ctx.Inject(dir.Reverse(), ack)
		}
		return forward(seg)
	}

	// Reverse-direction ACKs from the real receiver: use them to garbage
	// collect the proxy buffer and to detect holes that need a proxy
	// retransmission.
	if seg.Flags.Has(packet.FlagACK) && len(seg.Payload) == 0 {
		flow := seg.Tuple().Reverse() // the data-carrying flow this ACK refers to
		if buf := p.buffered[flow]; buf != nil {
			for start, held := range buf {
				if held.EndSeq().LessThanEq(seg.Ack) {
					delete(buf, start)
				}
			}
			if p.dupCounts[flow] == nil {
				p.dupCounts[flow] = make(map[packet.SeqNum]int)
			}
			p.dupCounts[flow][seg.Ack]++
			if p.dupCounts[flow][seg.Ack] == 3 {
				if held, ok := buf[seg.Ack]; ok {
					p.Retransmitted++
					p.dupCounts[flow][seg.Ack] = 0
					ctx.Inject(dir.Reverse(), held.Clone())
				}
			}
		}
	}
	return forward(seg)
}

// PayloadCorrupter flips bytes in matching payloads without any sequence
// fix-up, modelling in-path corruption or a "smart" device altering content.
// The DSS checksum must catch this.
type PayloadCorrupter struct {
	// EveryN corrupts one segment out of every N data segments (N >= 1).
	EveryN int
	count  int
	// Corrupted counts modified segments.
	Corrupted int
}

// NewPayloadCorrupter corrupts every n-th data segment.
func NewPayloadCorrupter(n int) *PayloadCorrupter {
	if n < 1 {
		n = 1
	}
	return &PayloadCorrupter{EveryN: n}
}

// Name implements netem.Box.
func (p *PayloadCorrupter) Name() string { return "payload-corrupt" }

// Process implements netem.Box.
func (p *PayloadCorrupter) Process(_ netem.BoxContext, _ netem.Direction, seg *packet.Segment) []*packet.Segment {
	if len(seg.Payload) == 0 {
		return forward(seg)
	}
	p.count++
	if p.count%p.EveryN == 0 {
		seg.Payload[0] ^= 0xff
		p.Corrupted++
	}
	return forward(seg)
}
