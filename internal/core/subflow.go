package core

import (
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/cc"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/tcp"
)

// SubflowRole distinguishes the first subflow (MP_CAPABLE handshake) from
// additional subflows (MP_JOIN handshake).
type SubflowRole int

// Subflow roles.
const (
	RoleInitial SubflowRole = iota
	RoleJoin
)

// rxMapping is one data sequence mapping received on a subflow: it maps the
// subflow-relative byte range [SubflowOffset, SubflowOffset+Length) to the
// connection-level range starting at DataSeq (relative to the peer's IDSN).
type rxMapping struct {
	subflowOffset uint32
	dataSeq       uint64
	length        int
	hasChecksum   bool
	checksum      uint16
}

func (m rxMapping) end() uint32 { return m.subflowOffset + uint32(m.length) }

// Inline capacities of the small per-connection slices (Connection.inline,
// Subflow.rxMappingsBuf), sized to what the bench/perf fleets were measured to
// hold and never a limit: one or two paths per host; at most 11 mappings in
// flight while a flow fits its initial window of 10 segments (all of `churn`,
// half of `corelink`'s flows); one received mapping at a time on an in-order
// subflow, one more after a reordering. TestConnectionFootprint pins the cost.
const (
	subflowsInline   = 2
	inflightInline   = 12
	rxMappingsInline = 2
)

// Subflow is one TCP subflow of an MPTCP connection. It implements tcp.Hooks
// to attach MPTCP options to outgoing segments and to interpret them on
// arriving ones.
type Subflow struct {
	conn *Connection
	ep   *tcp.Endpoint
	// coupled is the subflow's congestion controller when the connection
	// couples its subflows (see NewController).
	coupled cc.Coupled

	id      int
	addrID  uint8
	role    SubflowRole
	client  bool
	backup  bool
	started time.Duration

	established bool
	failed      bool

	// Handshake state.
	localNonce  uint32
	remoteNonce uint32
	// mpConfirmed records that the peer has demonstrably received our
	// MP_CAPABLE/MP_JOIN third-ACK state, so the "repeat the option on data
	// until acknowledged" rule (§3.1) can stop.
	mpConfirmed bool
	// sawMPTCPAfterHandshake is used by the server-side fallback rule: if
	// the first non-SYN segment carries no MPTCP option, the path strips
	// options and the connection must drop to regular TCP.
	sawNonSYNSegment bool

	// Receiver-side mappings, kept sorted by subflow offset; rxMappingsBuf is
	// their first backing store.
	rxMappings    []rxMapping
	rxMappingsBuf [rxMappingsInline]rxMapping

	// addAddrRepeats counts how many more outgoing segments should carry the
	// ADD_ADDR advertisements (sent a few times for robustness).
	addAddrRepeats int

	// pendingRemoveAddr holds address IDs withdrawn by the local host
	// (interface removal, §3.4 mobility); removeAddrRepeats counts how many
	// more outgoing segments should carry the REMOVE_ADDR option — like
	// ADD_ADDR it is repeated a few times because it rides on a best-effort
	// segment.
	pendingRemoveAddr []uint8
	removeAddrRepeats int

	// lastPenalized rate-limits Mechanism 2 to once per subflow RTT.
	lastPenalized time.Duration

	// sendMPFail requests that the next outgoing segment carry an MP_FAIL
	// option (checksum-failure fallback signalling).
	sendMPFail bool

	// Fallback anchors: once the connection drops to regular TCP, subflow
	// byte offsets map implicitly onto the data stream relative to these
	// anchor points.
	fallbackRxBase   uint64
	fallbackRxAnchor uint64
	fallbackTxBase   uint64
	fallbackTxAnchor uint64

	// Stats.
	chunksSent    uint64
	bytesSent     uint64
	reinjectsSent uint64
	reinjBytes    uint64
	csumFailures  uint64
	unmappedBytes uint64
}

// Endpoint returns the underlying TCP endpoint.
func (s *Subflow) Endpoint() *tcp.Endpoint { return s.ep }

// ID returns the subflow's connection-local identifier.
func (s *Subflow) ID() int { return s.id }

// Role returns whether this is the initial or a joined subflow.
func (s *Subflow) Role() SubflowRole { return s.role }

// Established reports whether the subflow handshake completed.
func (s *Subflow) Established() bool { return s.established && !s.failed }

// ---------------------------------------------------------------------------
// sched.Candidate
// ---------------------------------------------------------------------------

// SRTT implements sched.Candidate.
func (s *Subflow) SRTT() time.Duration { return s.ep.SRTT() }

// SendSpace implements sched.Candidate.
func (s *Subflow) SendSpace() int { return s.ep.SendSpace() }

// Usable implements sched.Candidate.
func (s *Subflow) Usable() bool { return s.Established() && s.ep.IsEstablished() }

// Backup implements sched.Candidate.
func (s *Subflow) Backup() bool { return s.backup }

// ---------------------------------------------------------------------------
// tcp.Hooks: outgoing segments
// ---------------------------------------------------------------------------

// OnSegmentSent implements tcp.Hooks.
func (s *Subflow) OnSegmentSent(e *tcp.Endpoint, seg *packet.Segment, retransmission bool) {
	c := s.conn
	if c.probe != nil {
		c.probe.Count(c.member, probe.CtrSegments, 1)
		c.probe.Count(c.member, probe.CtrSegBytes, uint64(seg.WireLen()))
	}
	isSYN := seg.Flags.Has(packet.FlagSYN)

	if isSYN {
		s.addHandshakeOptions(seg, retransmission)
		return
	}
	if s.sendMPFail {
		s.sendMPFail = false
		seg.Options = append(seg.Options, &packet.MPFailOption{DataSeq: c.wireDataAck()})
	}
	if !c.mptcpActive || c.fallback {
		return
	}

	// Repeat MP_CAPABLE (with both keys) on the third ACK and on data until
	// we know the peer received it (§3.1). The repeated option is large
	// (20 bytes), so segments carrying it shed the timestamp option and the
	// DATA_ACK to stay within the 40-byte option space.
	handshakeRepeat := false
	if s.role == RoleInitial && s.client && !s.mpConfirmed {
		if seg.MPTCPOption(packet.SubMPCapable) == nil {
			seg.AppendMPCapable(packet.MPCapableOption{
				Version:          0,
				ChecksumRequired: c.cfg.UseDSSChecksum,
				SenderKey:        uint64(c.localKey),
				ReceiverKey:      uint64(c.remoteKey),
				HasReceiverKey:   true,
			})
		}
		handshakeRepeat = true
	}

	// Third ACK of an MP_JOIN handshake carries the full-length HMAC; it is
	// only attached to segments without payload (it does not fit next to a
	// mapping) — the handshake's own third ACK is such a segment.
	if s.role == RoleJoin && s.client && !s.mpConfirmed && len(seg.Payload) == 0 {
		if seg.MPTCPOption(packet.SubMPJoin) == nil {
			mac := joinHMAC(c.localKey, c.remoteKey, s.localNonce, s.remoteNonce)
			seg.AppendMPJoin(packet.MPJoinOption{
				Phase:      packet.JoinACK,
				AddrID:     s.addrID,
				SenderHMAC: mac[:],
			})
		}
		handshakeRepeat = true
	}

	// Every segment carries the current data-level cumulative ACK; if a DSS
	// option is already attached (a data chunk with its mapping), fold the
	// DATA_ACK into it, otherwise append a pure DATA_ACK DSS.
	if dss, ok := seg.MPTCPOption(packet.SubDSS).(*packet.DSSOption); ok && dss != nil {
		if !handshakeRepeat {
			dss.HasDataACK = true
			dss.DataACK = c.wireDataAck()
		} else {
			// The 20-byte MP_CAPABLE repeat does not fit next to a mapping
			// AND a DATA_ACK (48 > 40 option bytes). Shed the DATA_ACK — the
			// mapping must survive — bringing the option set to exactly the
			// 40-byte TCP option space; the first segment after the repeat
			// stops re-carries the cumulative DATA_ACK.
			dss.HasDataACK = false
		}
		s.maybeAttachDataFIN(dss)
	} else if !handshakeRepeat {
		dss := seg.AppendDSS()
		dss.HasDataACK = true
		dss.DataACK = c.wireDataAck()
		s.maybeAttachDataFIN(dss)
	}
	if handshakeRepeat {
		seg.RemoveOptions(func(o packet.Option) bool { return o.Kind() == packet.OptTimestamps })
	}

	// Withdraw removed local addresses for a few segments (§3.4).
	if s.removeAddrRepeats > 0 && len(s.pendingRemoveAddr) > 0 {
		ids := make([]uint8, len(s.pendingRemoveAddr))
		copy(ids, s.pendingRemoveAddr)
		seg.Options = append(seg.Options, &packet.RemoveAddrOption{AddrIDs: ids})
		s.removeAddrRepeats--
		if s.removeAddrRepeats == 0 {
			s.pendingRemoveAddr = nil
		}
	}

	// Advertise additional server addresses for a few segments (§3.2).
	if s.addAddrRepeats > 0 {
		for _, adv := range c.addrAdvertisements() {
			opt := adv
			seg.Options = append(seg.Options, &opt)
		}
		s.addAddrRepeats--
	}

	// If the option set no longer fits, drop the ADD_ADDRs first, then give
	// up on everything but the DSS (defensive; should not happen with our
	// option sizes).
	if !packet.FitsOptionSpace(seg.Options) {
		seg.RemoveOptions(func(o packet.Option) bool { return o.Subtype() == packet.SubAddAddr })
	}
}

// maybeAttachDataFIN marks the DSS with the DATA_FIN signal while the
// connection-level FIN is outstanding (§3.4).
func (s *Subflow) maybeAttachDataFIN(dss *packet.DSSOption) {
	c := s.conn
	if !c.dataFinSent || c.dataFinAcked {
		return
	}
	if dss.HasMapping && dss.Length > 0 {
		// Only a mapping that ends exactly at the end of the data stream may
		// carry the DATA_FIN flag; flagging an arbitrary (e.g. retransmitted)
		// mapping would tell the receiver the stream ends early.
		end := c.relDataSeqFromLocalWire(dss.DataSeq) + uint64(dss.Length)
		if end == c.dataFinSeq {
			dss.DataFIN = true
		}
		return
	}
	// A pure DATA_FIN carries a zero-length mapping pointing at the final
	// data sequence number so the receiver learns where the data stream ends
	// even if it arrives before the last data.
	dss.DataFIN = true
	dss.HasMapping = true
	dss.DataSeq = c.wireDataSeq(c.dataFinSeq)
	dss.SubflowOffset = 0
	dss.Length = 0
}

// addHandshakeOptions attaches MP_CAPABLE / MP_JOIN to SYN and SYN/ACK
// segments.
func (s *Subflow) addHandshakeOptions(seg *packet.Segment, retransmission bool) {
	c := s.conn
	if !c.cfg.EnableMPTCP || c.fallback {
		return
	}
	// Per §3.1, a retransmitted SYN omits MP_CAPABLE so the connection can
	// proceed as regular TCP if a middlebox silently eats SYNs with new
	// options.
	if retransmission && s.client && s.role == RoleInitial {
		return
	}
	switch s.role {
	case RoleInitial:
		if !c.mptcpActive && !s.client {
			return
		}
		seg.AppendMPCapable(packet.MPCapableOption{
			Version:          0,
			ChecksumRequired: c.cfg.UseDSSChecksum,
			SenderKey:        uint64(c.localKey),
		})
	case RoleJoin:
		if s.client {
			seg.AppendMPJoin(packet.MPJoinOption{
				Phase:         packet.JoinSYN,
				AddrID:        s.addrID,
				Backup:        s.backup,
				ReceiverToken: c.remoteToken,
				SenderNonce:   s.localNonce,
			})
		} else {
			mac := joinHMAC(c.localKey, c.remoteKey, s.localNonce, s.remoteNonce)
			seg.AppendMPJoin(packet.MPJoinOption{
				Phase:       packet.JoinSYNACK,
				AddrID:      s.addrID,
				Backup:      s.backup,
				SenderHMAC:  truncatedHMAC(mac[:], 8),
				SenderNonce: s.localNonce,
			})
		}
	}
}

// ---------------------------------------------------------------------------
// tcp.Hooks: incoming segments
// ---------------------------------------------------------------------------

// OnSegmentReceived implements tcp.Hooks.
func (s *Subflow) OnSegmentReceived(e *tcp.Endpoint, seg *packet.Segment) {
	c := s.conn
	isSYN := seg.Flags.Has(packet.FlagSYN)

	if isSYN {
		s.handleHandshakeOptions(seg)
		return
	}

	// Server-side robustness rule (§3.1): if MPTCP was negotiated on the
	// handshake but the first non-SYN segment from the client arrives
	// without any MPTCP option, a middlebox is stripping options from data
	// packets; drop to regular TCP. The rule applies only to the passive
	// opener — the active opener may legitimately receive option-less
	// segments (e.g. ACKs generated by an on-path proxy).
	if !s.sawNonSYNSegment {
		s.sawNonSYNSegment = true
		if !s.client && c.mptcpActive && s.role == RoleInitial && !seg.HasMPTCP() {
			c.enterFallback("mptcp options stripped after handshake", s)
		}
	}

	// Track the peer's data-level window even in fallback mode, where the
	// subflow acknowledgement stands in for the DATA_ACK.
	windowBytes := int(seg.Window)
	if !isSYN {
		windowBytes <<= uint(e.PeerWindowScale())
	}

	if !c.mptcpActive || c.fallback {
		relAck := uint64(e.RelativeSndUna())
		if seg.Flags.Has(packet.FlagACK) {
			// RelativeSndUna is pre-ACK-processing; derive from the segment.
			relAck = s.relativeAck(seg)
		}
		c.onDataAck(s, relAck, windowBytes)
	}

	for _, o := range seg.Options {
		if o.Kind() != packet.OptMPTCP {
			continue
		}
		switch opt := o.(type) {
		case *packet.MPCapableOption:
			// Third ACK (or data) repeating both keys confirms the client
			// received our SYN/ACK key.
			if !s.client && opt.HasReceiverKey {
				s.mpConfirmed = true
			}
		case *packet.MPJoinOption:
			if opt.Phase == packet.JoinACK && !s.client {
				expected := joinHMAC(c.remoteKey, c.localKey, s.remoteNonce, s.localNonce)
				if !hmacEqual(opt.SenderHMAC, expected[:]) {
					s.failSubflow("mp_join hmac validation failed")
					return
				}
				s.mpConfirmed = true
				s.established = true
			}
		case *packet.DSSOption:
			s.mpConfirmed = true
			s.handleDSS(opt, windowBytes)
		case *packet.AddAddrOption:
			c.onRemoteAddressAdvertised(*opt)
		case *packet.RemoveAddrOption:
			c.onRemoteAddressRemoved(*opt)
		case *packet.MPPrioOption:
			s.backup = opt.Backup
		case *packet.MPFailOption:
			c.enterFallback("peer signalled MP_FAIL (checksum failure)", s)
		case *packet.FastcloseOption:
			c.abortFromPeer()
		}
	}
}

// relativeAck converts the segment's cumulative acknowledgement into an
// offset from the first payload byte we sent on this subflow.
func (s *Subflow) relativeAck(seg *packet.Segment) uint64 {
	d := seg.Ack.DiffFrom(s.ep.ISS().Add(1))
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// handleDSS records a received data sequence signal.
func (s *Subflow) handleDSS(opt *packet.DSSOption, windowBytes int) {
	c := s.conn
	if opt.HasDataACK {
		c.onDataAck(s, c.relDataSeqFromLocalWire(opt.DataACK), windowBytes)
	}
	if opt.HasMapping && opt.Length > 0 {
		m := rxMapping{
			subflowOffset: opt.SubflowOffset,
			dataSeq:       c.relDataSeqFromRemoteWire(opt.DataSeq),
			length:        int(opt.Length),
			hasChecksum:   opt.HasChecksum,
			checksum:      opt.Checksum,
		}
		s.insertRxMapping(m)
	}
	if opt.DataFIN {
		finSeq := c.relDataSeqFromRemoteWire(opt.DataSeq)
		if opt.HasMapping && opt.Length > 0 {
			finSeq += uint64(opt.Length)
		}
		c.onRemoteDataFIN(finSeq)
	}
}

// insertRxMapping stores a mapping, ignoring exact duplicates (TSO-style
// splitters copy the same option onto several segments).
func (s *Subflow) insertRxMapping(m rxMapping) {
	for i := range s.rxMappings {
		if s.rxMappings[i].subflowOffset == m.subflowOffset && s.rxMappings[i].length == m.length {
			return
		}
	}
	s.rxMappings = append(s.rxMappings, m)
	// Keep sorted by subflow offset; mappings mostly arrive in order so the
	// insertion sort step is short.
	for i := len(s.rxMappings) - 1; i > 0; i-- {
		if s.rxMappings[i-1].subflowOffset <= s.rxMappings[i].subflowOffset {
			break
		}
		s.rxMappings[i-1], s.rxMappings[i] = s.rxMappings[i], s.rxMappings[i-1]
	}
}

// findRxMapping returns the mapping covering the given subflow offset.
func (s *Subflow) findRxMapping(offset uint32) (rxMapping, bool) {
	for _, m := range s.rxMappings {
		if offset >= m.subflowOffset && offset < m.end() {
			return m, true
		}
	}
	return rxMapping{}, false
}

// nextRxMappingAfter returns the lowest mapping offset greater than the given
// offset, used to skip unmapped bytes (coalescing middleboxes).
func (s *Subflow) nextRxMappingAfter(offset uint32) (uint32, bool) {
	best := uint32(0)
	found := false
	for _, m := range s.rxMappings {
		if m.subflowOffset > offset && (!found || m.subflowOffset < best) {
			best = m.subflowOffset
			found = true
		}
	}
	return best, found
}

// gcRxMappings discards mappings whose subflow bytes have been fully
// delivered.
func (s *Subflow) gcRxMappings(deliveredUpTo uint32) {
	kept := s.rxMappings[:0]
	for _, m := range s.rxMappings {
		if m.end() > deliveredUpTo {
			kept = append(kept, m)
		}
	}
	s.rxMappings = kept
}

// handleHandshakeOptions processes options on SYN and SYN/ACK segments.
func (s *Subflow) handleHandshakeOptions(seg *packet.Segment) {
	c := s.conn
	isSYNACK := seg.Flags.Has(packet.FlagACK)
	switch s.role {
	case RoleInitial:
		if s.client && isSYNACK {
			opt, _ := seg.MPTCPOption(packet.SubMPCapable).(*packet.MPCapableOption)
			if opt == nil {
				// SYN/ACK without MP_CAPABLE: either the server does not
				// support MPTCP or a middlebox stripped the option; fall
				// back to regular TCP (§3.1).
				c.mptcpActive = false
				c.enterFallback("no MP_CAPABLE in SYN/ACK", s)
				return
			}
			c.remoteKey = Key(opt.SenderKey)
			c.remoteToken, c.remoteIDSN = c.remoteKey.TokenAndIDSN()
			c.mptcpActive = true
			if opt.ChecksumRequired {
				c.cfg.UseDSSChecksum = true
			}
		}
	case RoleJoin:
		if s.client && isSYNACK {
			opt, _ := seg.MPTCPOption(packet.SubMPJoin).(*packet.MPJoinOption)
			if opt == nil {
				s.failSubflow("no MP_JOIN in SYN/ACK")
				return
			}
			s.remoteNonce = opt.SenderNonce
			expected := joinHMAC(c.remoteKey, c.localKey, s.remoteNonce, s.localNonce)
			if !hmacEqual(opt.SenderHMAC, truncatedHMAC(expected[:], 8)) {
				s.failSubflow("mp_join hmac validation failed (SYN/ACK)")
				return
			}
			s.established = true
		}
	}
}

// failSubflow resets a subflow that failed MPTCP validation or lost its
// MPTCP options mid-stream; the connection continues on other subflows.
func (s *Subflow) failSubflow(reason string) {
	if s.failed {
		return
	}
	s.failed = true
	s.ep.SendReset()
	s.conn.onSubflowFailed(s, reason)
}

// ---------------------------------------------------------------------------
// tcp.Hooks: delivery, state, window
// ---------------------------------------------------------------------------

// OnDataDelivered implements tcp.Hooks: in-order subflow payload is mapped
// into the connection-level sequence space.
func (s *Subflow) OnDataDelivered(e *tcp.Endpoint, relSeq uint32, data []byte) {
	s.conn.onSubflowData(s, relSeq, data)
}

// OnStateChange implements tcp.Hooks.
func (s *Subflow) OnStateChange(e *tcp.Endpoint, old, new tcp.State) {
	c := s.conn
	switch new {
	case tcp.StateEstablished:
		s.established = true
		c.onSubflowEstablished(s)
	case tcp.StateCloseWait:
		// Peer sent a subflow FIN: in fallback mode that is the end of the
		// data stream. RelativeRcvNxt already counts the FIN's own sequence
		// number, so the data stream ends one byte earlier.
		if c.Fallback() {
			rel := uint64(e.RelativeRcvNxt())
			if rel > 0 {
				rel--
			}
			c.onRemoteDataFIN(c.fallbackDataSeq(s, rel))
		}
	case tcp.StateClosed:
		c.onSubflowClosed(s, e.Err())
	}
}

// OnSendSpaceAvailable implements tcp.Hooks. It runs after the endpoint
// has processed a segment's acknowledgement, so the send queue is trimmed to
// the DATA_ACK here rather than when the DSS is read (before it): by now the
// chunks the same segment acknowledges have let go of their blocks, which go
// straight back to the pool instead of onto the pinned list.
func (s *Subflow) OnSendSpaceAvailable(e *tcp.Endpoint) {
	c := s.conn
	c.sndBuf.TrimTo(c.dataUna)
	c.pump()
}

// SendQueue implements tcp.Hooks: a subflow sends from its connection's send
// queue, where every unacknowledged byte is stored once.
func (s *Subflow) SendQueue() *buffer.SendQueue { return &s.conn.sndBuf }

// AdvertiseWindow implements tcp.Hooks: subflows advertise the shared
// connection-level receive window (§3.3.1). With the PerSubflowReceiveWindow
// ablation, each subflow instead advertises its own slice of the buffer
// (inheriting TCP's per-flow window semantics), which is the design the
// paper rejects because it deadlocks when a subflow fails silently.
func (s *Subflow) AdvertiseWindow(e *tcp.Endpoint) (int, bool) {
	c := s.conn
	if c.cfg.PerSubflowReceiveWindow && c.MPTCPActive() {
		share := c.cfg.RecvBufBytes / maxInt(1, len(c.subflows))
		used := e.ReceiveQueuedBytes() + c.ofoBySubflow[s.id]
		win := share - used
		if win < 0 {
			win = 0
		}
		return win, true
	}
	if !c.mptcpActive && !c.fallback {
		return 0, false
	}
	return c.receiveWindow(), true
}

// NewController implements tcp.Hooks: an MPTCP subflow holds its controller
// itself, linked into the connection's coupled group. The active opener
// decides from its configuration (the handshake has not run yet), the
// passive opener from what the SYN negotiated.
func (s *Subflow) NewController(cfg cc.Config) cc.Controller {
	c := s.conn
	if !c.cfg.EnableMPTCP || (!s.client && !c.MPTCPActive()) {
		return nil
	}
	c.ccGroup.Add(&s.coupled, cfg)
	return &s.coupled
}

// ---------------------------------------------------------------------------
// tcp.ProbeSink: endpoint telemetry forwarded to the flight recorder
// ---------------------------------------------------------------------------
//
// These are only ever invoked when the connection has a recorder attached
// (the endpoint's Probe config field is set iff c.probe != nil), so they
// forward unconditionally.

// OnEndpointRTO implements tcp.ProbeSink.
func (s *Subflow) OnEndpointRTO(e *tcp.Endpoint, backoff int, rto time.Duration) {
	c := s.conn
	c.probe.Emit(c.member, probe.KindRTO, c.connID, int32(s.id), int64(backoff), int64(rto))
	c.probe.Count(c.member, probe.CtrRTOs, 1)
}

// OnEndpointFastRetransmit implements tcp.ProbeSink.
func (s *Subflow) OnEndpointFastRetransmit(e *tcp.Endpoint) {
	c := s.conn
	c.probe.Emit(c.member, probe.KindFastRetransmit, c.connID, int32(s.id), 0, 0)
	c.probe.Count(c.member, probe.CtrFastRtx, 1)
}

// OnEndpointCCState implements tcp.ProbeSink.
func (s *Subflow) OnEndpointCCState(e *tcp.Endpoint, state tcp.CCState) {
	c := s.conn
	var k probe.Kind
	switch state {
	case tcp.CCSlowStart:
		k = probe.KindCCSlowStart
	case tcp.CCRecovery:
		k = probe.KindCCRecovery
	default:
		k = probe.KindCCAvoidance
	}
	c.probe.Emit(c.member, k, c.connID, int32(s.id), int64(e.Cwnd()), int64(e.Controller().Ssthresh()))
}
