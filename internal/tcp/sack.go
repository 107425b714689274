package tcp

import "mptcpgo/internal/packet"

// Selective acknowledgements (RFC 2018). The receiver reports the ranges it
// holds out of order; the sender uses them to repair multiple losses within a
// window in roughly one round trip instead of one loss per round trip. The
// Linux kernel the paper builds on relies on SACK, and the slow-start
// overshoot on a freshly established subflow makes multi-loss recovery a
// common case for MPTCP.

// recordSackRange merges an out-of-order arrival into the receiver's SACK
// range list.
func (e *Endpoint) recordSackRange(left, right packet.SeqNum) {
	if !left.LessThan(right) {
		return
	}
	merged := packet.SACKBlock{Left: left, Right: right}
	out := e.sackRanges[:0]
	for _, r := range e.sackRanges {
		if r.Right.LessThan(merged.Left) || merged.Right.LessThan(r.Left) {
			out = append(out, r) // disjoint
			continue
		}
		// Overlapping or adjacent: grow the merged block.
		if r.Left.LessThan(merged.Left) {
			merged.Left = r.Left
		}
		if merged.Right.LessThan(r.Right) {
			merged.Right = r.Right
		}
	}
	e.sackRanges = append(out, merged)
	packet.SortSACKBlocks(e.sackRanges)
}

// pruneSackRanges drops ranges that the cumulative acknowledgement has
// covered.
func (e *Endpoint) pruneSackRanges() {
	out := e.sackRanges[:0]
	for _, r := range e.sackRanges {
		if r.Right.LessThanEq(e.rcvNxt) {
			continue
		}
		if r.Left.LessThan(e.rcvNxt) {
			r.Left = e.rcvNxt
		}
		out = append(out, r)
	}
	e.sackRanges = out
}

// sackBlocks returns the blocks to advertise on an outgoing ACK (at most
// three, most recently changed ranges first is approximated by reporting the
// lowest ranges, which is what matters for hole repair). The returned slice
// aliases the endpoint's range list; makeSegment copies it into the
// segment's option arena.
func (e *Endpoint) sackBlocks() []packet.SACKBlock {
	if !e.peerSackOK || len(e.sackRanges) == 0 {
		return nil
	}
	n := len(e.sackRanges)
	if n > 3 {
		n = 3
	}
	return e.sackRanges[:n]
}

// processSack marks retransmission-queue chunks covered by the peer's SACK
// blocks.
func (e *Endpoint) processSack(opt *packet.SACKOption) {
	if opt == nil || len(e.retransQ) == 0 {
		return
	}
	for _, blk := range opt.Blocks {
		for _, c := range e.retransQ {
			if c.sacked {
				continue
			}
			if !c.seq.LessThan(blk.Left) && c.endSeq().LessThanEq(blk.Right) {
				c.sacked = true
			}
		}
	}
}

// retransmitNextHole retransmits the oldest unacknowledged chunk that has not
// been selectively acknowledged and has not yet been repaired in the current
// recovery episode. It returns false when there is nothing (left) to repair.
func (e *Endpoint) retransmitNextHole() bool {
	for _, c := range e.retransQ {
		if c.sacked || c.rtxEpoch == e.recoveryEpoch {
			continue
		}
		if !c.seq.LessThan(e.recoveryEnd) {
			break
		}
		c.rtxEpoch = e.recoveryEpoch
		e.transmitChunk(c, true)
		return true
	}
	return false
}

// pipeBytes estimates how much data is still in the network (RFC 6675 "pipe"):
// sacked chunks have left the network, chunks below the highest SACKed range
// (after a timeout, at least the whole episode) that are neither sacked nor
// retransmitted this episode are presumed lost, everything else is presumed
// in flight.
func (e *Endpoint) pipeBytes() int {
	high := e.sndUna
	if e.afterTimeout {
		high = e.recoveryEnd
	}
	for _, c := range e.retransQ {
		if c.sacked && high.LessThan(c.endSeq()) {
			high = c.endSeq()
		}
	}
	pipe := 0
	for _, c := range e.retransQ {
		size := int(c.seqLen())
		switch {
		case c.sacked:
			// Delivered; not in the pipe.
		case c.rtxEpoch == e.recoveryEpoch:
			// Retransmitted this episode; in the pipe again.
			pipe += size
		case c.endSeq().LessThanEq(high):
			// Below the highest SACK and never repaired: presumed lost.
		default:
			pipe += size
		}
	}
	return pipe
}

// recoveryTransmit repairs holes while the estimated pipe leaves room under
// the congestion window. This is what keeps a large loss burst from being
// re-blasted into the bottleneck queue all at once.
func (e *Endpoint) recoveryTransmit() {
	if !e.inRecovery {
		return
	}
	mss := e.EffectiveMSS()
	for e.pipeBytes()+mss <= e.ctrl.Cwnd() {
		if !e.retransmitNextHole() {
			break
		}
	}
}
