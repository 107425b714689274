package core

import (
	"mptcpgo/internal/buffer"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// onSubflowData maps in-order subflow payload into the connection-level data
// sequence space using the received DSS mappings, verifying checksums where
// possible, and feeds the shared reassembly queue.
func (c *Connection) onSubflowData(s *Subflow, relSeq uint32, data []byte) {
	if c.closed || len(data) == 0 {
		return
	}
	if c.Fallback() {
		c.insertData(s, c.fallbackDataSeq(s, uint64(relSeq)), data)
		return
	}
	for len(data) > 0 {
		m, ok := s.findRxMapping(relSeq)
		if !ok {
			next, found := s.nextRxMappingAfter(relSeq)
			if !found {
				c.handleUnmappedData(s, relSeq, data)
				return
			}
			// Bytes without a mapping (a coalescing middlebox merged
			// segments and dropped one of the DSS options, §3.3.5): they are
			// acknowledged at the subflow level but not at the data level,
			// so the peer's connection-level retransmission recovers them.
			skip := int(next - relSeq)
			if skip >= len(data) {
				c.stats.UnmappedBytes += uint64(len(data))
				return
			}
			c.stats.UnmappedBytes += uint64(skip)
			data = data[skip:]
			relSeq += uint32(skip)
			continue
		}
		n := int(m.end() - relSeq)
		if n > len(data) {
			n = len(data)
		}
		chunk := data[:n]
		dataSeq := m.dataSeq + uint64(relSeq-m.subflowOffset)

		// The DSS checksum can only be verified when the mapping's bytes are
		// available in one piece (the common case: one mapping per segment).
		// A length change by a content-modifying middlebox also surfaces
		// here as a mapping/payload mismatch.
		if m.hasChecksum && relSeq == m.subflowOffset && n == m.length {
			wireSeq := c.remoteIDSN + 1 + packet.DataSeq(m.dataSeq)
			want := packet.DSSChecksum(wireSeq, m.subflowOffset, uint16(m.length), chunk)
			if want != m.checksum {
				s.csumFailures++
				c.stats.ChecksumFailures++
				c.onChecksumFailure(s)
				return
			}
		}

		c.insertData(s, dataSeq, chunk)
		data = data[n:]
		relSeq += uint32(n)
	}
	s.gcRxMappings(relSeq)
}

// fallbackDataSeq converts a subflow-relative offset into a data sequence
// number using the implicit mapping anchored when the connection fell back.
func (c *Connection) fallbackDataSeq(s *Subflow, relSeq uint64) uint64 {
	if relSeq < s.fallbackRxBase {
		return c.dataRcvNxt
	}
	return s.fallbackRxAnchor + (relSeq - s.fallbackRxBase)
}

// handleUnmappedData reacts to payload for which no mapping is (yet) known.
// If the subflow has never delivered a mapping and it is the connection's
// only subflow, the path is stripping DSS options entirely and the
// connection falls back to regular TCP (infinite mapping). Otherwise the
// bytes are simply not placed at the data level: they are acknowledged at the
// subflow level but not DATA_ACKed, so the sender's connection-level
// retransmission recovers them (§3.3.5 — this is what a coalescing middlebox
// that discarded one of the mappings causes).
func (c *Connection) handleUnmappedData(s *Subflow, relSeq uint32, data []byte) {
	if len(s.rxMappings) == 0 && len(c.subflows) <= 1 && c.dataRcvNxt == 0 {
		c.enterFallback("data received without a mapping", s)
		c.insertData(s, c.fallbackDataSeq(s, uint64(relSeq)), data)
		return
	}
	c.stats.UnmappedBytes += uint64(len(data))
}

// onChecksumFailure implements the §3.3.6 procedure: reset the subflow if
// others remain, otherwise fall back to regular TCP for the rest of the
// connection (signalling MP_FAIL to the peer).
func (c *Connection) onChecksumFailure(s *Subflow) {
	if len(c.usableSubflows()) > 1 {
		s.failSubflow()
		return
	}
	s.sendMPFail = true
	c.enterFallback("dss checksum failure on the only subflow", s)
	// Push the MP_FAIL out immediately.
	s.ep.SendAck()
}

// insertData places a chunk of connection-level data at dataSeq: in-order
// data goes straight to the receive queue, anything else to the shared
// out-of-order queue (§4.3).
func (c *Connection) insertData(s *Subflow, dataSeq uint64, data []byte) {
	end := dataSeq + uint64(len(data))
	if end <= c.dataRcvNxt {
		return // duplicate (e.g. opportunistic retransmission arriving late)
	}
	if dataSeq < c.dataRcvNxt {
		skip := c.dataRcvNxt - dataSeq
		data = data[skip:]
		dataSeq = c.dataRcvNxt
	}
	if dataSeq == c.dataRcvNxt {
		c.rcvBuf.Append(data)
		c.dataRcvNxt += uint64(len(data))
		if c.ofo != nil {
			for _, it := range c.ofo.PopContiguous(c.dataRcvNxt) {
				c.rcvBuf.Append(it.Data)
				c.dataRcvNxt = it.End()
				if n := c.ofoBySubflow[it.Subflow]; n > 0 {
					c.ofoBySubflow[it.Subflow] = max(0, n-len(it.Data))
				}
				c.bufs.Recycle(it.Data)
			}
		}
		c.maybeConsumeRemoteDataFin()
		if c.OnReadable != nil {
			c.OnReadable()
		}
		return
	}
	// Built here, at the first out-of-order arrival: most flows never get one.
	if c.ofo == nil {
		c.ofo = buffer.NewOfoQueue(c.cfg.OfoAlgorithm)
		c.ofo.UsePool(c.bufs, sim.Local[buffer.Nodes](c.sim))
		c.ofoBySubflow = make(map[int]int)
	}
	c.ofo.Insert(buffer.Item{Seq: dataSeq, Data: data, Subflow: s.id})
	c.ofoBySubflow[s.id] += len(data)
}

// onRemoteDataFIN records the peer's DATA_FIN (the end of its data stream).
func (c *Connection) onRemoteDataFIN(finSeq uint64) {
	if c.remoteDataFin {
		return
	}
	c.remoteDataFin = true
	c.remoteDataFinSeq = finSeq
	c.maybeConsumeRemoteDataFin()
}

// maybeConsumeRemoteDataFin delivers EOF once every byte before the DATA_FIN
// has been received, and acknowledges the DATA_FIN.
func (c *Connection) maybeConsumeRemoteDataFin() {
	if !c.remoteDataFin || c.eofConsumed {
		return
	}
	if c.dataRcvNxt < c.remoteDataFinSeq {
		return
	}
	c.eofConsumed = true
	if !c.Fallback() {
		// The DATA_FIN occupies one data sequence number; acknowledge it.
		c.dataRcvNxt = c.remoteDataFinSeq + 1
		for _, s := range c.usableSubflows() {
			s.ep.SendAck()
			break
		}
	}
	if c.OnReadable != nil {
		c.OnReadable()
	}
	c.checkDone()
}

// sendWindowUpdate advertises the (grown) shared receive window on every
// usable subflow so a sender stalled against connection-level flow control
// resumes promptly.
func (c *Connection) sendWindowUpdate() {
	for _, s := range c.usableSubflows() {
		s.ep.ForceWindowUpdate()
	}
}
