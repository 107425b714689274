package core

import (
	"time"

	"mptcpgo/internal/packet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sched"
)

// pump is the sender engine: it maps application data onto subflows according
// to the scheduler, enforces connection-level flow control and triggers the
// sender-side mechanisms of §4.2 when the connection is receive-window
// limited.
func (c *Connection) pump() {
	if c.pumping || c.closed || !c.established || c.err != nil {
		return
	}
	c.pumping = true
	defer func() { c.pumping = false }()

	if c.cfg.CwndCapping {
		c.applyCwndCapping()
	}

	if c.Fallback() {
		c.pumpFallback()
		return
	}

	c.recoverDroppedMappings()

	for {
		avail := int64(c.sndBuf.TailOffset()) - int64(c.dataNxt)
		if avail <= 0 {
			break
		}
		fcSpace := int64(c.rwndLimit) - int64(c.dataNxt)
		if fcSpace <= 0 {
			// Receive-window limited: this is where opportunistic
			// retransmission (M1) and penalization (M2) act.
			c.onReceiveWindowLimited()
			break
		}
		mss := c.mssEstimate()
		want := int(avail)
		if int64(want) > fcSpace {
			want = int(fcSpace)
		}
		if want > mss {
			want = mss
		}
		// Avoid connection-level silly-window syndrome: while data is in
		// flight, wait until a full-MSS chunk can be sent rather than
		// dribbling tiny mappings (the only exception is the final tail of
		// the stream).
		if want < mss && int(avail) >= mss && c.inflight.Len() > 0 {
			if fcSpace <= int64(mss) {
				c.onReceiveWindowLimited()
			}
			break
		}
		sf := c.pickSubflow(want)
		if sf == nil {
			break
		}
		size := want
		if m := sf.ep.EffectiveMSS(); size > m {
			size = m
		}
		if sp := sf.ep.SendSpace(); size > sp {
			size = sp
		}
		if size <= 0 || !c.sendMapping(sf, c.dataNxt, size, nil) {
			break
		}
		c.dataNxt += uint64(size)
	}

	c.maybeSendDataFin()
}

// pickSubflow asks the scheduler which usable subflow should carry the next
// size bytes; nil means none can send now. The scheduler's view is built in a
// scratch slice owned by the connection (this runs once per transmitted
// chunk), separate from the usableSubflows scratch, whose callers may still
// be iterating it when they get here through pump.
func (c *Connection) pickSubflow(size int) *Subflow {
	cands := c.candScratch[:0]
	for _, s := range c.subflows {
		if s.Usable() {
			cands = append(cands, s)
		}
	}
	c.candScratch = cands
	if idx := (sched.LowestRTT{}).Pick(cands, size); idx >= 0 {
		return cands[idx].(*Subflow)
	}
	return nil
}

// sendMapping transmits the n bytes at dataSeq of the send queue on a subflow
// with their data sequence mapping. The subflow's chunk references them in
// place (the queue is the subflow endpoint's, see Subflow.SendQueue). When
// reinject is non-nil this is a retransmission of an existing mapping on a
// different subflow.
func (c *Connection) sendMapping(sf *Subflow, dataSeq uint64, n int, reinject *txMapping) bool {
	offset := uint32(sf.ep.QueuedPayloadBytes())
	// The DSS option comes from (and returns to) the shard's free list by way
	// of the subflow endpoint: ownership transfers with SendChunk and
	// the endpoint recycles it once the mapping's bytes are fully
	// acknowledged.
	dss := sf.ep.NewDSSOption()
	dss.HasDataACK = true
	dss.DataACK = c.wireDataAck()
	dss.HasMapping = true
	dss.DataSeq = c.wireDataSeq(dataSeq)
	dss.SubflowOffset = offset
	dss.Length = uint16(n)
	if c.cfg.UseDSSChecksum {
		dss.HasChecksum = true
		dss.Checksum = packet.DSSChecksum(dss.DataSeq, offset, dss.Length, c.sndBuf.Peek(dataSeq, n))
	}
	if !sf.ep.SendChunk(dataSeq, n, dss) {
		return false
	}
	sf.chunksSent++
	sf.bytesSent += uint64(n)
	c.stats.MappingsSent++
	now := c.sim.Now()
	if reinject == nil {
		m := c.free.mappings.Get()
		*m = txMapping{
			dataSeq:     dataSeq,
			length:      n,
			subflow:     sf,
			sentAt:      now,
			sfOffsetEnd: uint64(offset) + uint64(n),
		}
		c.inflight.Push(m)
	} else {
		reinject.lastReinject = now
		reinject.reinjections++
		sf.reinjectsSent++
		sf.reinjBytes += uint64(n)
		c.stats.Reinjections++
		if c.probe != nil {
			c.probe.Emit(c.member, probe.KindReinjection, c.connID, int32(sf.id), int64(n), int64(reinject.reinjections))
			c.probe.Count(c.member, probe.CtrReinjections, 1)
		}
	}
	c.armConnRtx()
	return true
}

// pumpFallback sends queued data as plain TCP on the single surviving
// subflow.
func (c *Connection) pumpFallback() {
	sf := c.fallbackSubflow()
	if sf == nil || !sf.ep.IsEstablished() {
		return
	}
	for {
		avail := int64(c.sndBuf.TailOffset()) - int64(c.dataNxt)
		if avail <= 0 {
			break
		}
		fcSpace := int64(c.rwndLimit) - int64(c.dataNxt)
		if fcSpace <= 0 {
			break
		}
		size := int(avail)
		if int64(size) > fcSpace {
			size = int(fcSpace)
		}
		if m := sf.ep.EffectiveMSS(); size > m {
			size = m
		}
		if sp := sf.ep.SendSpace(); size > sp {
			size = sp
		}
		if size <= 0 || !sf.ep.SendChunk(c.dataNxt, size, nil) {
			break
		}
		c.dataNxt += uint64(size)
	}
	// In fallback mode the connection close is the plain subflow FIN.
	if c.dataFinQueued && !c.dataFinSent && c.dataNxt == c.sndBuf.TailOffset() {
		c.dataFinSent = true
		c.dataFinSeq = c.dataNxt
		sf.ep.Close()
	}
}

// fallbackSubflow returns the subflow carrying a fallen-back connection.
func (c *Connection) fallbackSubflow() *Subflow {
	for _, s := range c.subflows {
		if !s.failed {
			return s
		}
	}
	return nil
}

// onReceiveWindowLimited implements Mechanisms 1 and 2: when the shared
// receive window is full, opportunistically retransmit the mapping at the
// trailing edge of the window on a subflow that has congestion-window space,
// and penalize the subflow responsible for holding the window up.
func (c *Connection) onReceiveWindowLimited() {
	if c.inflight.Len() == 0 {
		return
	}
	if !c.cfg.OpportunisticRetransmit && !c.cfg.PenalizeSlowSubflows {
		return
	}
	m := c.inflight.Items()[0]
	now := c.sim.Now()

	var fast *Subflow
	if c.cfg.OpportunisticRetransmit {
		fast = c.pickSubflow(m.length)
		if fast != nil && fast != m.subflow {
			// Rate-limit reinjection of the same mapping to roughly once per
			// RTT of the fast path.
			if m.lastReinject == 0 || now-m.lastReinject >= fast.ep.SRTT() {
				if c.reinjectable(m) && c.sendMapping(fast, m.dataSeq, m.length, m) {
					c.stats.OpportunisticRtx++
				}
			}
		}
	}

	if c.cfg.PenalizeSlowSubflows {
		slow := m.subflow
		if slow != nil && slow.Usable() && slow != fast {
			if slow.lastPenalized == 0 || now-slow.lastPenalized >= slow.ep.SRTT() {
				slow.ep.Controller().ForceReduce()
				slow.lastPenalized = now
				c.stats.Penalizations++
			}
		}
	}
}

// applyCwndCapping implements Mechanism 4: when a subflow's smoothed RTT
// exceeds twice its base RTT, the path's queue holds more than a
// bandwidth-delay product of data; cap the congestion window near the BDP so
// memory is not wasted filling network buffers.
func (c *Connection) applyCwndCapping() {
	for _, s := range c.subflows {
		if !s.Usable() {
			continue
		}
		srtt := s.ep.SRTT()
		base := s.ep.BaseRTT()
		if base <= 0 || srtt <= 0 {
			continue
		}
		if srtt > 2*base {
			// Estimated BDP: (cwnd / srtt) * baseRTT; allow twice that.
			bdp := int(float64(s.ep.Cwnd()) * base.Seconds() / srtt.Seconds())
			cap := max(2*s.ep.EffectiveMSS(), 2*bdp)
			s.ep.Controller().SetCwndCap(cap)
		} else {
			s.ep.Controller().SetCwndCap(0)
		}
	}
}

// maybeSendDataFin emits the DATA_FIN once all written data has been mapped
// (§3.4).
func (c *Connection) maybeSendDataFin() {
	if !c.dataFinQueued || c.dataFinSent || c.Fallback() {
		return
	}
	if c.dataNxt != c.sndBuf.TailOffset() {
		return
	}
	c.dataFinSeq = c.dataNxt
	c.dataNxt++
	c.dataFinSent = true
	// Carry the DATA_FIN on a pure ACK on every usable subflow; the
	// connection-level retransmission timer repeats it if lost.
	for _, s := range c.usableSubflows() {
		s.ep.SendAck()
	}
	c.armConnRtx()
}

// onDataAck processes a data-level cumulative acknowledgement (explicit
// DATA_ACK, or the subflow ACK standing in for it in fallback mode) together
// with the receive window carried on the same segment.
func (c *Connection) onDataAck(from *Subflow, relAck uint64, windowBytes int) {
	if c.closed {
		return
	}
	if c.Fallback() && from != nil {
		// Translate the subflow-level acknowledgement into the data stream.
		if relAck >= from.fallbackTxBase {
			relAck = from.fallbackTxAnchor + (relAck - from.fallbackTxBase)
		} else {
			relAck = c.dataUna
		}
	}
	if relAck > c.dataNxt {
		relAck = c.dataNxt
	}
	if c.cfg.PerSubflowReceiveWindow && c.MPTCPActive() {
		// With per-subflow windows (ablation) the subflow endpoints enforce
		// flow control themselves; the connection level only needs a loose
		// aggregate bound.
		windowBytes = c.cfg.RecvBufBytes
	}
	if limit := relAck + uint64(windowBytes); limit > c.rwndLimit {
		c.rwndLimit = limit
	}
	c.checkStall()
	if relAck > c.dataUna {
		c.dataUna = relAck
		c.lastProgress, c.stalled = c.sim.Now(), false
		freed := 0
		for _, m := range c.inflight.Items() {
			if m.end() > c.dataUna {
				break
			}
			// Zeroed so a free mapping does not pin its subflow.
			*m = txMapping{}
			c.free.mappings.Put(m)
			freed++
		}
		c.inflight.Drop(freed)
		if c.dataFinSent && !c.dataFinAcked && c.dataUna >= c.dataFinSeq+1 {
			c.dataFinAcked = true
			c.checkDone()
		}
		if c.inflight.Len() == 0 && (!c.dataFinSent || c.dataFinAcked) {
			c.connRtx.Stop()
		} else {
			c.connRtx.Reset(c.connRtxInterval())
		}
		if c.OnWritable != nil && c.sendBufferSpace() > 0 && !c.dataFinQueued {
			c.OnWritable()
		}
	}
	c.pump()
}

// ---------------------------------------------------------------------------
// Connection-level retransmission (§3.3.5)
// ---------------------------------------------------------------------------

// connRtxInterval is twice the largest RTO among usable subflows (at least
// 400 ms): a mapping not DATA_ACKed by then is reinjected.
func (c *Connection) connRtxInterval() time.Duration {
	interval := 200 * time.Millisecond
	for _, s := range c.usableSubflows() {
		if rto := s.ep.RTO(); rto > interval {
			interval = rto
		}
	}
	return 2 * interval
}

func (c *Connection) armConnRtx() {
	if c.connRtx.Pending() {
		return
	}
	if c.inflight.Len() == 0 && (!c.dataFinSent || c.dataFinAcked) {
		return
	}
	c.connRtx.Reset(c.connRtxInterval())
}

// onConnRetransmitTimeout reinjects the first un-DATA-ACKed mapping on the
// best available subflow: the sender frees connection-level memory only on
// DATA_ACK, so data whose DATA_ACK never arrives (failed subflow, dropped
// mapping) must eventually be retransmitted at the connection level.
func (c *Connection) onConnRetransmitTimeout() {
	c.mark.Check("core.Connection")
	if c.closed || c.Fallback() {
		return
	}
	c.checkStall()
	if c.inflight.Len() == 0 && (!c.dataFinSent || c.dataFinAcked) {
		return
	}
	if c.inflight.Len() > 0 {
		m := c.inflight.Items()[0]
		if sf := c.pickSubflow(m.length); sf != nil {
			if c.reinjectable(m) && c.sendMapping(sf, m.dataSeq, m.length, m) {
				c.stats.ConnLevelRtx++
			}
		}
	} else if c.dataFinSent && !c.dataFinAcked {
		for _, s := range c.usableSubflows() {
			s.ep.SendAck()
			break
		}
	}
	c.connRtx.Reset(c.connRtxInterval())
}

// StallInterval is how long DATA_ACK may stand still while the connection
// holds written bytes before it counts as stalled: the silent stall of
// §3.3.1, where a subflow that fails holding the window's trailing edge
// deadlocks the connection.
const StallInterval = 2 * time.Second

// checkStall counts a stall episode the first time it finds written bytes
// held while DATA_ACK has not advanced for StallInterval; the next DATA_ACK
// advance ends the episode. It runs on every DATA_ACK and on every
// connection-level retransmission timeout, which is armed while mappings are
// in flight, so a stall needs no timer of its own to be seen.
func (c *Connection) checkStall() {
	if c.stalled || c.unackedBytes() == 0 {
		return
	}
	since := c.sim.Now() - c.lastProgress
	if since < StallInterval {
		return
	}
	c.stalled = true
	c.stats.StallEpisodes++
	if c.probe != nil {
		c.probe.Emit(c.member, probe.KindStall, c.connID, -1, int64(c.dataUna), int64(since))
		c.probe.Count(c.member, probe.CtrStallEpisodes, 1)
	}
}

// recoverDroppedMappings reinjects mappings whose bytes have been
// acknowledged at the subflow level but not at the data level for more than a
// round-trip time: the receiver got the bytes but could not place them in the
// data stream, which happens when a middlebox coalesced segments and dropped
// one of the data sequence mappings (§3.3.5). Without this, such data would
// only be repaired by the (much slower) connection-level timeout.
func (c *Connection) recoverDroppedMappings() {
	if c.inflight.Len() == 0 {
		return
	}
	// Only the mapping at the trailing edge of the window can be judged:
	// if its bytes have been acknowledged at the subflow level but the
	// data-level cumulative ACK has not moved past it for several round
	// trips, the receiver has the bytes but could not place them.
	m := c.inflight.Items()[0]
	sf := m.subflow
	if sf == nil || sf.ep == nil {
		return
	}
	if !sf.failed && uint64(sf.ep.RelativeSndUna()) < m.sfOffsetEnd {
		return // not yet subflow-acked; normal in-flight data
	}
	now := c.sim.Now()
	wait := 3 * sf.ep.SRTT()
	if wait < 30*time.Millisecond {
		wait = 30 * time.Millisecond
	}
	if now-m.sentAt < wait || (m.lastReinject != 0 && now-m.lastReinject < wait) {
		return
	}
	to := c.pickSubflow(m.length)
	if to == nil {
		return
	}
	if c.reinjectable(m) {
		c.sendMapping(to, m.dataSeq, m.length, m)
	}
}

// reinjectSubflowData requeues the un-DATA-ACKed mappings that were sent on a
// failed subflow so they are retransmitted elsewhere promptly. A fallen-back
// connection has nowhere else, nor has one being reset (c.err).
func (c *Connection) reinjectSubflowData(failed *Subflow) {
	if c.Fallback() || c.err != nil {
		return
	}
	for _, m := range c.inflight.Items() {
		if m.subflow != failed {
			continue
		}
		sf := c.pickSubflow(m.length)
		if sf == nil {
			// No subflow can take it right now; the connection-level
			// retransmission timer will retry.
			c.armConnRtx()
			continue
		}
		if sf == failed {
			continue
		}
		if c.reinjectable(m) {
			c.sendMapping(sf, m.dataSeq, m.length, m)
		}
	}
}

// reinjectable reports whether none of a mapping's bytes is DATA_ACKed yet,
// so that sending it again can still help: a partly acknowledged mapping is
// left to the subflow that carries it.
func (c *Connection) reinjectable(m *txMapping) bool {
	return !c.closed && m.dataSeq >= c.dataUna
}

// unackedBytes is how many written bytes are not yet DATA_ACKed, what the
// send buffer holds against its limit; a finished connection holds none.
// Blocks below dataUna that a subflow's chunks still hold stay in the queue
// but do not count.
func (c *Connection) unackedBytes() int {
	if tail := c.sndBuf.TailOffset(); !c.closed && c.dataUna < tail {
		return int(tail - c.dataUna)
	}
	return 0
}
