package tcp

import (
	"mptcpgo/internal/buffer"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// HandleSegment implements netem.SegmentHandler; every segment addressed to
// this endpoint's four-tuple lands here.
func (e *Endpoint) HandleSegment(_ *netem.Interface, seg *packet.Segment) {
	e.mark.Check("tcp.Endpoint")
	if e.state == StateClosed {
		return
	}
	e.stats.SegmentsReceived++
	e.stats.BytesReceived += uint64(len(seg.Payload))

	switch e.state {
	case StateSynSent:
		e.handleSynSent(seg)
		return
	case StateSynReceived:
		e.handleSynReceived(seg)
		return
	}

	// RST processing: accept if the sequence number is within the window.
	if seg.Flags.Has(packet.FlagRST) {
		if seg.Seq == e.rcvNxt || inReceiveWindow(seg, e.rcvNxt, uint32(e.cfg.RecvBufBytes)) {
			e.teardown(ErrReset)
		}
		return
	}

	if ts, ok := seg.FindOption(packet.OptTimestamps).(*packet.TimestampsOption); ok {
		e.peerTSOK = true
		e.tsRecent = ts.Val
	}

	e.hooks.OnSegmentReceived(e, seg)
	e.processAck(seg)
	if e.state == StateClosed {
		return
	}
	e.processPayload(seg)
	if e.timeWait != nil {
		e.handOff()
	}
}

// handleSynSent processes the SYN/ACK of an active open.
func (e *Endpoint) handleSynSent(seg *packet.Segment) {
	if seg.Flags.Has(packet.FlagRST) {
		e.teardown(ErrReset)
		return
	}
	if !seg.Flags.Has(packet.FlagSYN) || !seg.Flags.Has(packet.FlagACK) {
		return
	}
	if seg.Ack != e.iss.Add(1) {
		// Acknowledgement doesn't cover our SYN; reset per RFC 793.
		rst := packet.NewSegment()
		rst.Src, rst.Dst = e.local, e.remote
		rst.Seq, rst.Flags = seg.Ack, packet.FlagRST
		e.iface.Send(rst)
		return
	}
	e.processSYNOptions(seg)
	e.hooks.OnSegmentReceived(e, seg)
	e.irs = seg.Seq
	e.rcvNxt = seg.Seq.Add(1)
	e.sndUna = seg.Ack
	e.sndWnd = int(seg.Window)
	e.synAcked()
	// Third ACK of the handshake (hooks add MP_CAPABLE with both keys).
	e.SendAck()
	e.output()
	e.hooks.OnSendSpaceAvailable(e)
	e.maybeNotifyWritable()
}

// handleSynReceived processes the final ACK of a passive open.
func (e *Endpoint) handleSynReceived(seg *packet.Segment) {
	if seg.Flags.Has(packet.FlagRST) {
		e.teardown(ErrReset)
		return
	}
	if seg.Flags.Has(packet.FlagSYN) {
		// Retransmitted SYN: retransmit our SYN/ACK.
		if len(e.retransQ) > 0 && e.retransQ[0].syn {
			e.transmitChunk(e.retransQ[0], true)
		}
		return
	}
	if !seg.Flags.Has(packet.FlagACK) || seg.Ack != e.iss.Add(1) {
		return
	}
	e.sndUna = seg.Ack
	e.sndWnd = int(seg.Window) << uint(e.peerWndShift)
	e.synAcked()
	e.hooks.OnSegmentReceived(e, seg)
	// The third ACK may already carry data.
	if len(seg.Payload) > 0 || seg.Flags.Has(packet.FlagFIN) {
		e.processPayload(seg)
	}
	e.output()
	e.hooks.OnSendSpaceAvailable(e)
	e.maybeNotifyWritable()
}

// synAcked completes the handshake once the peer has acknowledged our SYN:
// the SYN chunk leaves the retransmission queue (an RTT sample unless it was
// retransmitted), the recovery episode a SYN timeout opened closes with it,
// and the endpoint is established.
func (e *Endpoint) synAcked() {
	if len(e.retransQ) > 0 && e.retransQ[0].syn {
		var c *chunk
		e.retransQ, c = popChunk(e.retransQ)
		if c.transmissions == 1 {
			e.sampleRTT(e.sim.Now() - c.sentAt)
		}
		e.freeChunk(c)
	}
	e.rtoTimer.Stop()
	e.inRecovery = false
	e.noteCCState()
	e.setState(StateEstablished)
}

// inReceiveWindow implements the RFC 793 acceptability test, loosely, for a
// receive window of win bytes from rcvNxt.
func inReceiveWindow(seg *packet.Segment, rcvNxt packet.SeqNum, win uint32) bool {
	if win == 0 {
		return seg.Seq == rcvNxt
	}
	return seg.Seq.InRange(rcvNxt, rcvNxt.Add(win)) ||
		seg.EndSeq().InRange(rcvNxt.Add(1), rcvNxt.Add(win))
}

// processPayload reassembles in-order data, manages the out-of-order queue
// and acknowledges.
func (e *Endpoint) processPayload(seg *packet.Segment) {
	hasFin := seg.Flags.Has(packet.FlagFIN)
	if len(seg.Payload) == 0 && !hasFin {
		return
	}

	segSeq := seg.Seq
	payload := seg.Payload
	if hasFin {
		// The FIN occupies the sequence number just after the segment's
		// payload. One that arrives ahead of missing data waits, like the
		// data it follows, until rcvNxt reaches it.
		e.finSeq, e.finPending = seg.Seq.Add(uint32(len(seg.Payload))), true
	}

	// Trim data we already have.
	if segSeq.LessThan(e.rcvNxt) {
		skip := int(e.rcvNxt.DiffFrom(segSeq))
		if skip >= len(payload) {
			if !hasFin || seg.EndSeq().LessThanEq(e.rcvNxt) {
				// Entirely old segment: re-ACK so the sender resynchronizes.
				e.SendAck()
				return
			}
			payload = nil
			segSeq = e.rcvNxt
		} else {
			payload = payload[skip:]
			segSeq = e.rcvNxt
		}
	}

	if segSeq == e.rcvNxt {
		// In-order: deliver directly.
		if len(payload) > 0 {
			e.deliver(segSeq, payload)
			e.rcvNxt = e.rcvNxt.Add(uint32(len(payload)))
		}
		// Drain anything now contiguous from the out-of-order queue; each
		// item's pool-owned buffer is recycled once its bytes have been
		// copied into the downstream queues.
		if e.recvOfo != nil {
			rel := uint64(uint32(e.rcvNxt.DiffFrom(e.irs.Add(1))))
			for _, it := range e.recvOfo.PopContiguous(rel) {
				e.deliver(e.rcvNxt, it.Data)
				e.rcvNxt = e.rcvNxt.Add(uint32(len(it.Data)))
				rel = it.End()
				e.bufs.Recycle(it.Data)
			}
		}
		e.pruneSackRanges()
		if e.finPending && e.finSeq == e.rcvNxt {
			e.handleFIN()
		}
		e.SendAck()
		if len(payload) > 0 || hasFin {
			e.notifyReadable()
		}
		return
	}

	// Out of order: queue it (at the subflow level the offset from the ISN is
	// used, which stays consistent across sequence-rewriting middleboxes
	// because both Seq and ISN are rewritten together).
	if len(payload) > 0 {
		rel := uint64(uint32(segSeq.DiffFrom(e.irs.Add(1))))
		// Insert copies the payload into a pool-owned buffer; the segment
		// keeps ownership of the slice passed in. The queue is built here, at
		// the first out-of-order arrival: an in-order flow never has one.
		if e.recvOfo == nil {
			e.recvOfo = buffer.NewOfoQueue(buffer.AlgRegular)
			e.recvOfo.UsePool(e.bufs, sim.Local[buffer.Nodes](e.sim))
		}
		e.recvOfo.Insert(buffer.Item{Seq: rel, Data: payload})
		e.recordSackRange(segSeq, segSeq.Add(uint32(len(payload))))
	}
	// Immediate duplicate ACK to trigger the peer's fast retransmit.
	e.SendAck()
}

// deliver hands in-order payload to the hooks and, unless the hooks supply
// the send queue (an MPTCP subflow, whose data is buffered once, at the
// connection level), to the application buffer.
func (e *Endpoint) deliver(seq packet.SeqNum, data []byte) {
	e.stats.BytesDelivered += uint64(len(data))
	rel := uint32(seq.DiffFrom(e.irs.Add(1)))
	e.hooks.OnDataDelivered(e, rel, data)
	if e.ownsSndBuf {
		e.recvQueue.Append(data)
	}
}

// handleFIN processes an in-sequence FIN from the peer.
func (e *Endpoint) handleFIN() {
	if e.finReceived {
		return
	}
	e.finReceived = true
	e.rcvNxt = e.rcvNxt.Add(1)
	switch e.state {
	case StateEstablished:
		e.setState(StateCloseWait)
	case StateFinWait1:
		// Our FIN is still unacknowledged: simultaneous close.
		e.setState(StateClosing)
	case StateFinWait2:
		e.enterTimeWait()
	}
	e.notifyReadable()
}

func (e *Endpoint) notifyReadable() {
	if e.OnReadable != nil {
		e.OnReadable()
	}
}

// ---------------------------------------------------------------------------
// Window updates
// ---------------------------------------------------------------------------

// maybeSendWindowUpdate advertises newly freed receive buffer after the
// application reads, so a sender stalled on a closed window can resume
// (avoiding the flow-control deadlock discussed in §3.3.1).
func (e *Endpoint) maybeSendWindowUpdate() {
	if !e.IsEstablished() {
		return
	}
	current := e.advertisedWindowBytes()
	grown := current - e.lastAdvertisedWnd
	if grown >= e.EffectiveMSS() || (e.lastAdvertisedWnd == 0 && current > 0) ||
		(current >= e.cfg.RecvBufBytes/4 && grown >= e.cfg.RecvBufBytes/4) {
		e.SendAck()
	}
}

// ForceWindowUpdate sends an immediate window-update ACK; the MPTCP layer
// calls it when connection-level buffer space frees up.
func (e *Endpoint) ForceWindowUpdate() {
	if e.IsEstablished() {
		e.SendAck()
	}
}
