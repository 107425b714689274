package tcp

import (
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/packet"
)

// makeSegment builds an outgoing segment with the current acknowledgement and
// advertised window. Options are deep-copied into the segment's own arena —
// an in-flight segment never aliases the chunk's retransmission state, which
// is what lets the endpoint recycle chunks and their DSS options the moment
// they are fully acknowledged.
func (e *Endpoint) makeSegment(flags packet.Flags, seq packet.SeqNum, payload []byte, opts []packet.Option) *packet.Segment {
	seg := packet.NewSegment()
	seg.Src = e.local
	seg.Dst = e.remote
	seg.Seq = seq
	seg.Flags = flags
	seg.Payload = payload
	if flags.Has(packet.FlagSYN) {
		// What SYN and SYN/ACK advertise, built in the segment's arena.
		seg.AppendMSS(uint16(e.cfg.MSS))
		seg.AppendSACKPermitted()
		if shift := windowShift(e.cfg.RecvBufBytes); shift > 0 {
			seg.AppendWindowScale(shift)
			e.rcvWndShift = shift
		}
	}
	for _, o := range opts {
		seg.AppendOptionCopy(o)
	}
	// Every segment carries an acknowledgement except the very first SYN of
	// an active open (no peer sequence is known yet).
	if e.state != StateSynSent || flags.Has(packet.FlagACK) {
		seg.Flags |= packet.FlagACK
		seg.Ack = e.rcvNxt
		if !flags.Has(packet.FlagSYN) {
			if blocks := e.sackBlocks(); len(blocks) > 0 {
				seg.AppendSACK(blocks)
			}
		}
	}
	// Timestamps provide retransmission-ambiguity-free RTT samples.
	if flags.Has(packet.FlagSYN) || e.peerTSOK {
		seg.AppendTimestamps(uint32(e.sim.Now()/time.Millisecond), e.tsRecent)
	}
	seg.Window = e.windowField(flags.Has(packet.FlagSYN))
	return seg
}

// windowField computes the value to place in the TCP window field, applying
// window scaling (except on SYN segments, which are never scaled).
func (e *Endpoint) windowField(isSYN bool) uint16 {
	win := e.advertisedWindowBytes()
	e.lastAdvertisedWnd = win
	if isSYN {
		if win > 65535 {
			win = 65535
		}
		return uint16(win)
	}
	shift := uint(e.rcvWndShift)
	scaled := win >> shift
	if scaled > 65535 {
		scaled = 65535
	}
	return uint16(scaled)
}

// advertisedWindowBytes returns the receive window to advertise: either the
// hook-provided connection-level window (MPTCP) or the free space in this
// endpoint's receive buffer.
func (e *Endpoint) advertisedWindowBytes() int {
	if win, ok := e.hooks.AdvertiseWindow(e); ok {
		if win < 0 {
			win = 0
		}
		return win
	}
	used := e.ReceiveQueuedBytes()
	win := e.cfg.RecvBufBytes - used
	if win < 0 {
		win = 0
	}
	return win
}

// processSYNOptions applies the peer's SYN/SYN-ACK options.
func (e *Endpoint) processSYNOptions(seg *packet.Segment) {
	e.peerWndShift = 0
	for _, o := range seg.Options {
		switch opt := o.(type) {
		case *packet.MSSOption:
			e.peerMSS = int(opt.MSS)
		case *packet.WindowScaleOption:
			shift := opt.Shift
			if shift > 14 {
				shift = 14
			}
			e.peerWndShift = shift
		case *packet.SACKPermittedOption:
			e.peerSackOK = true
		case *packet.TimestampsOption:
			e.peerTSOK = true
			e.tsRecent = opt.Val
		}
	}
}

// transmitChunk emits one chunk (first transmission or retransmission). The
// segment payload is copied out of the send queue into a pool-owned buffer —
// the one copy the "payload never shared" invariant requires, recycled when
// the segment reaches its sink.
func (e *Endpoint) transmitChunk(c *chunk, retransmission bool) {
	flags := packet.Flags(0)
	if c.syn {
		flags |= packet.FlagSYN
	}
	if c.fin {
		flags |= packet.FlagFIN
	}
	if c.payLen > 0 {
		flags |= packet.FlagPSH
	}
	seg := e.makeSegment(flags, c.seq, nil, c.opts)
	if c.payLen > 0 {
		buf := e.bufs.Bytes(c.payLen)
		e.sndBuf.CopyAt(buf, c.payOff)
		seg.AttachPayloadFrom(e.bufs, buf)
	}
	c.sentAt = e.sim.Now()
	c.transmissions++
	if retransmission {
		e.stats.Retransmissions++
	}
	e.sendSegment(seg, retransmission)
}

// sendSegment runs the hooks and hands the segment to the interface.
func (e *Endpoint) sendSegment(seg *packet.Segment, retransmission bool) {
	e.hooks.OnSegmentSent(e, seg, retransmission)
	// The hooks may have added MPTCP options; if the 40-byte option space is
	// now exceeded, shed SACK blocks first (they are advisory), then the
	// whole SACK option.
	for !packet.FitsOptionSpace(seg.Options) {
		sack, _ := seg.FindOption(packet.OptSACK).(*packet.SACKOption)
		if sack == nil {
			break
		}
		if len(sack.Blocks) > 1 {
			sack.Blocks = sack.Blocks[:len(sack.Blocks)-1]
			continue
		}
		seg.RemoveOptions(func(o packet.Option) bool { return o.Kind() == packet.OptSACK })
	}
	e.stats.SegmentsSent++
	e.stats.BytesSent += uint64(len(seg.Payload))
	e.iface.Send(seg)
}

// output transmits as much queued data as the congestion window (and, for
// plain TCP, the peer's receive window) allows.
func (e *Endpoint) output() {
	if e.state == StateSynSent || e.state == StateSynReceived {
		return // data flows once established; SYN already in flight
	}
	if !e.IsEstablished() && e.state != StateClosing && e.state != StateLastAck {
		return
	}
	popped := 0
	for popped < len(e.sendQueue) {
		c := e.sendQueue[popped]
		allowance := e.SendSpace()
		if c.payLen > 0 && allowance < c.payLen && e.BytesInFlight() > 0 {
			// Not enough room for the whole chunk; wait for ACKs (sending
			// partial chunks would complicate MPTCP mappings for no gain).
			break
		}
		if c.payLen > 0 && allowance <= 0 {
			break
		}
		// Zero-window deadlock protection for plain TCP: if nothing is in
		// flight and the peer window is closed, the persist timer takes over.
		if !e.cfg.ConnectionLevelWindow && c.payLen > 0 &&
			e.sndWnd-e.BytesInFlight() < c.payLen && e.BytesInFlight() == 0 {
			e.armPersist()
			break
		}
		popped++
		c.seq = e.sndNxt
		e.sndNxt = e.sndNxt.Add(c.seqLen())
		e.retransQ = append(e.retransQ, c)
		if c.fin {
			e.onFINSent()
		}
		e.transmitChunk(c, false)
	}
	if popped > 0 {
		// Compact once for the whole burst (per-pop compaction would make a
		// full-buffer drain quadratic in the window, like the ACK loop).
		e.sendQueue = buffer.CompactPrefix(e.sendQueue, popped)
	}
	if len(e.retransQ) > 0 {
		e.rtoTimer.ResetIfStopped(e.backedOffRTO())
	}
}

// onFINSent updates connection state when our FIN enters the network.
func (e *Endpoint) onFINSent() {
	switch e.state {
	case StateEstablished:
		e.setState(StateFinWait1)
	case StateCloseWait:
		e.setState(StateLastAck)
	}
}

// ---------------------------------------------------------------------------
// Acknowledgement processing
// ---------------------------------------------------------------------------

// processAck handles the ACK field of an incoming segment.
func (e *Endpoint) processAck(seg *packet.Segment) {
	if !seg.Flags.Has(packet.FlagACK) {
		return
	}
	ack := seg.Ack

	// Update the peer's advertised window (scaled except on SYN segments).
	wnd := int(seg.Window)
	if !seg.Flags.Has(packet.FlagSYN) {
		wnd <<= uint(e.peerWndShift)
	}
	windowGrew := wnd > e.sndWnd
	e.sndWnd = wnd

	if sack, ok := seg.FindOption(packet.OptSACK).(*packet.SACKOption); ok {
		e.processSack(sack)
	}

	// A timestamp echo on an ACK advancing the cumulative point gives a
	// retransmission-ambiguity-free RTT sample.
	var tsSample time.Duration
	if ts, ok := seg.FindOption(packet.OptTimestamps).(*packet.TimestampsOption); ok && ts.Echo != 0 {
		echoed := time.Duration(ts.Echo) * time.Millisecond
		if now := e.sim.Now(); now >= echoed {
			tsSample = now - echoed
		}
	}

	switch {
	case ack.LessThanEq(e.sndUna):
		// Duplicate or old ACK.
		if ack == e.sndUna && len(seg.Payload) == 0 && len(e.retransQ) > 0 && !windowGrew {
			e.stats.DupAcksReceived++
			e.dupAcks++
			e.onDupAck()
		}
	case ack.LessThanEq(e.sndNxt):
		e.onAckAdvance(ack, tsSample)
	default:
		// ACK for data we never sent; ignore (blind or corrupted).
		return
	}

	if windowGrew || ack == e.sndNxt {
		e.persistTimer.Stop()
	}
	if !e.cfg.ConnectionLevelWindow && e.sndWnd == 0 && len(e.sendQueue) > 0 {
		e.armPersist()
	}

	e.output()
	e.hooks.OnSendSpaceAvailable(e)
	e.maybeNotifyWritable()
}

// onAckAdvance handles an ACK that acknowledges new data. tsSample, when
// non-zero, is the RTT measured from the segment's timestamp echo.
func (e *Endpoint) onAckAdvance(ack packet.SeqNum, tsSample time.Duration) {
	ackedBytes := int(ack.DiffFrom(e.sndUna))
	e.sndUna = ack
	e.rtoBackoff = 0

	rttSample := tsSample
	// Release fully acknowledged chunks. When the peer sends no timestamps
	// (a middlebox stripped the option from its SYN), the RTT sample is
	// taken from the chunk at the leading edge of the acknowledgement, and
	// only if it was never retransmitted (Karn's algorithm); sampling older
	// chunks would inflate the estimate whenever a cumulative ACK jumps
	// across a repaired hole.
	freed := 0
	for freed < len(e.retransQ) {
		c := e.retransQ[freed]
		if c.endSeq().LessThanEq(ack) {
			if !e.peerTSOK {
				if c.transmissions == 1 {
					rttSample = e.sim.Now() - c.sentAt
				} else {
					rttSample = 0
				}
			}
			e.queuedBytes -= c.payLen
			if e.ownsSndBuf {
				e.sndBuf.TrimTo(c.payOff + uint64(c.payLen))
			}
			// The chunk's retransmission lifetime is over: nothing else
			// references it (segments carry arena copies of its options), so
			// it and its DSS options go back to the free lists. Its queue
			// slot is cleared by the compaction below.
			e.freeChunk(c)
			freed++
			continue
		}
		// Partial chunk acknowledgement (middleboxes may resegment): trim.
		if c.seq.LessThan(ack) {
			trim := int(ack.DiffFrom(c.seq))
			if trim > c.payLen {
				trim = c.payLen
			}
			e.setRange(c, c.payOff+uint64(trim), c.payLen-trim)
			c.seq = ack
			e.queuedBytes -= trim
			if e.ownsSndBuf {
				e.sndBuf.TrimTo(c.payOff)
			}
		}
		break
	}
	if freed > 0 {
		// Compact once for the whole batch (a cumulative ACK after a stall
		// can retire the entire queue); per-pop compaction would make this
		// loop quadratic in the window.
		e.retransQ = buffer.CompactPrefix(e.retransQ, freed)
	}

	if rttSample > 0 {
		e.sampleRTT(rttSample)
	}

	if e.inRecovery {
		if e.recoveryEnd.LessThanEq(ack) {
			e.inRecovery = false
			e.recoveryInfl = 0
			e.dupAcks = 0
			e.ctrl.OnRecoveryExit()
		} else {
			// Partial ACK: the first chunk is a hole the peer still misses;
			// repair it (even if it was already retransmitted this episode —
			// the partial ACK proves that copy did not arrive), then fill
			// the pipe with further hole repairs.
			if len(e.retransQ) > 0 && !e.retransQ[0].sacked {
				e.retransQ[0].rtxEpoch = e.recoveryEpoch
				e.transmitChunk(e.retransQ[0], true)
			}
			e.recoveryTransmit()
		}
	} else {
		e.dupAcks = 0
		e.ctrl.OnAck(ackedBytes, rttSample)
	}
	e.noteCCState()

	// Detect whether our FIN has been acknowledged.
	if e.finQueued && len(e.retransQ) == 0 && len(e.sendQueue) == 0 {
		switch e.state {
		case StateFinWait1:
			e.setState(StateFinWait2)
		case StateClosing:
			e.enterTimeWait()
		case StateLastAck:
			e.teardown(nil)
			return
		}
	}

	if len(e.retransQ) == 0 {
		e.rtoTimer.Stop()
	} else {
		e.rtoTimer.Reset(e.backedOffRTO())
	}
}

// onDupAck implements fast retransmit / fast recovery with SACK-based hole
// repair: every duplicate ACK lets the sender retransmit one more missing
// chunk, so a burst of losses within one window is repaired in roughly one
// round trip.
func (e *Endpoint) onDupAck() {
	if e.inRecovery {
		// Each duplicate ACK signals that a segment left the network; repair
		// further holes as the pipe estimate allows.
		e.recoveryTransmit()
		e.output()
		return
	}
	if e.dupAcks == 3 && len(e.retransQ) > 0 {
		e.stats.FastRetransmits++
		if e.cfg.Probe != nil {
			e.cfg.Probe.OnEndpointFastRetransmit(e)
		}
		e.inRecovery = true
		e.recoveryEnd = e.sndNxt
		e.recoveryInfl = 0
		e.recoveryEpoch++
		e.ctrl.OnFastRetransmit()
		if !e.retransmitNextHole() {
			e.transmitChunk(e.retransQ[0], true)
		}
		e.recoveryTransmit()
		e.rtoTimer.Reset(e.backedOffRTO())
		e.noteCCState()
	}
}

// noteCCState reports congestion-phase transitions through the probe. It is
// a no-op without an attached probe, so untraced endpoints pay one branch.
func (e *Endpoint) noteCCState() {
	if e.cfg.Probe == nil {
		return
	}
	st := CCSlowStart
	switch {
	case e.inRecovery:
		st = CCRecovery
	case !e.ctrl.InSlowStart():
		st = CCAvoidance
	}
	if st != e.ccState {
		e.ccState = st
		e.cfg.Probe.OnEndpointCCState(e, st)
	}
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

func (e *Endpoint) sampleRTT(sample time.Duration) {
	if e.baseRTT == 0 || sample < e.baseRTT {
		e.baseRTT = sample
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		diff := e.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + sample) / 8
	}
	rto := e.srtt + 4*e.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	e.rto = rto
}

func (e *Endpoint) backedOffRTO() time.Duration {
	rto := e.rto
	for i := 0; i < e.rtoBackoff; i++ {
		rto *= 2
		if rto >= maxRTO {
			return maxRTO
		}
	}
	return rto
}

func (e *Endpoint) armRTO() {
	e.rtoTimer.Reset(e.backedOffRTO())
}

// onRTO handles a retransmission timeout.
func (e *Endpoint) onRTO() {
	if len(e.retransQ) == 0 {
		return
	}
	e.stats.Timeouts++
	e.rtoBackoff++
	if e.cfg.Probe != nil {
		// Reported before the retry-limit check so the fatal timeout that
		// kills a subflow is part of its recorded backoff run.
		e.cfg.Probe.OnEndpointRTO(e, e.rtoBackoff, e.backedOffRTO())
	}
	if e.cfg.MaxRTORetries > 0 && e.rtoBackoff > e.cfg.MaxRTORetries {
		e.teardown(ErrTimeout)
		return
	}
	e.inRecovery = false
	e.recoveryInfl = 0
	e.dupAcks = 0
	e.recoveryEpoch++
	// After a timeout the SACK scoreboard may be stale (the peer could have
	// discarded out-of-order data); start over.
	e.clearSackState()
	e.ctrl.OnTimeout()
	e.noteCCState()
	e.transmitChunk(e.retransQ[0], true)
	e.rtoTimer.Reset(e.backedOffRTO())
}

// armPersist schedules a zero-window probe.
func (e *Endpoint) armPersist() {
	if e.persistTimer.Pending() {
		return
	}
	e.persistTimer.Reset(maxDur(e.backedOffRTO(), 500*time.Millisecond))
}

// onPersist sends a zero-window probe: one byte of the next pending chunk.
func (e *Endpoint) onPersist() {
	if e.state == StateClosed || len(e.sendQueue) == 0 || e.sndWnd > 0 {
		return
	}
	e.stats.PersistProbes++
	c := e.sendQueue[0]
	if c.payLen > 1 {
		// Split off a one-byte probe chunk that carries the same options so
		// any attached MPTCP mapping still covers its byte range. The probe
		// borrows the owner's option objects (ownsOpts stays false): the
		// owning chunk outlives it in the queues, so the owner frees them.
		probe := e.newChunk()
		e.setRange(probe, c.payOff, 1)
		probe.opts = append(probe.optsBuf[:0], c.opts...)
		e.setRange(c, c.payOff+1, c.payLen-1)
		probe.seq = e.sndNxt
		e.sndNxt = e.sndNxt.Add(1)
		e.retransQ = append(e.retransQ, probe)
		e.transmitChunk(probe, false)
	} else {
		e.sendQueue, _ = popChunk(e.sendQueue)
		c.seq = e.sndNxt
		e.sndNxt = e.sndNxt.Add(c.seqLen())
		e.retransQ = append(e.retransQ, c)
		e.transmitChunk(c, false)
	}
	e.rtoTimer.ResetIfStopped(e.backedOffRTO())
	e.persistTimer.Reset(2 * e.backedOffRTO())
}

func (e *Endpoint) maybeNotifyWritable() {
	if e.OnWritable != nil && e.SendBufferSpace() > 0 {
		e.OnWritable()
	}
}

// enterTimeWait schedules the final teardown after 2*MSL.
func (e *Endpoint) enterTimeWait() {
	e.setState(StateTimeWait)
	e.timeWaitTimer.Reset(timeWait)
}
