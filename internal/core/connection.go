package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/cc"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sched"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/tcp"
)

// Connection-level errors.
var (
	ErrAllSubflowsFailed = errors.New("mptcp: all subflows failed")
	ErrAborted           = errors.New("mptcp: connection aborted")
)

// ConnStats aggregates connection-level counters.
type ConnStats struct {
	BytesWritten     uint64
	BytesDelivered   uint64
	MappingsSent     uint64
	Reinjections     uint64
	OpportunisticRtx uint64
	Penalizations    uint64
	ChecksumFailures uint64
	UnmappedBytes    uint64
	Fallbacks        uint64
	SubflowsOpened   int
	ConnLevelRtx     uint64
}

// txMapping is one in-flight data sequence mapping (sent, not yet DATA_ACKed).
type txMapping struct {
	dataSeq      uint64
	length       int
	subflow      *Subflow
	sentAt       time.Duration
	lastReinject time.Duration
	reinjections int
	// sfOffsetEnd is the subflow-relative offset just past the mapping's
	// bytes on its original subflow; comparing it with the subflow's
	// cumulative acknowledgement detects data that was acknowledged at the
	// subflow level but never placed at the data level (a middlebox dropped
	// the mapping, §3.3.5).
	sfOffsetEnd uint64
}

func (m *txMapping) end() uint64 { return m.dataSeq + uint64(m.length) }

// Connection is one MPTCP connection: a byte stream striped over one or more
// TCP subflows, with connection-level sequence numbers, acknowledgements and
// flow control.
type Connection struct {
	mgr *Manager
	cfg Config
	sim *sim.Simulator

	localKey    Key
	remoteKey   Key
	localToken  uint32
	remoteToken uint32
	localIDSN   packet.DataSeq
	remoteIDSN  packet.DataSeq

	// mptcpActive is true once MP_CAPABLE has been (apparently) negotiated;
	// fallback is true when the connection dropped to regular TCP semantics
	// (stripped options, checksum failure on the last subflow, ...).
	mptcpActive bool
	fallback    bool

	established bool
	closed      bool
	isClient    bool
	err         error

	ccGroup cc.CoupledGroup

	// Flight-recorder identity, copied from the manager at creation. probe
	// is nil when tracing is off; every emission site goes through the
	// nil-safe recorder methods.
	probe  *probe.Recorder
	member int
	connID int32

	subflows      []*Subflow
	nextSubflowID int

	// Scratch slices reused by the per-chunk scheduling hot path (see
	// usableSubflows and pickSubflow).
	usableScratch []*Subflow
	candScratch   []sched.Candidate
	// remoteAddrs are addresses learned through ADD_ADDR.
	remoteAddrs []packet.Endpoint
	// usedRemote lists the remote endpoints a subflow was ever dialed to.
	usedRemote []packet.Endpoint

	// inline is the first backing store of each small slice above and below:
	// usually it is all a connection needs, and append spills to the heap
	// past it exactly as it grew from nil, so no size here is a limit.
	inline struct {
		subflows, usable [subflowsInline]*Subflow
		cands            [subflowsInline]sched.Candidate
		usedRemote       [subflowsInline]packet.Endpoint
		inflight         [inflightInline]*txMapping
	}

	dialCfg struct {
		remote packet.Endpoint
		port   uint16
	}

	// ---- data-level send state (relative sequence numbers, 0-based) ----
	autotunedSndBuf int
	sndBuf          buffer.SendQueue
	dataUna         uint64
	dataNxt         uint64
	rwndLimit       uint64
	inflight        []*txMapping
	// mappingFree recycles txMapping structs popped by cumulative DATA_ACKs
	// (one mapping is created per transmitted chunk). The list belongs to
	// the simulator, so every connection of a shard shares it.
	mappingFree *pool.FreeList[txMapping]
	// bufs is the simulator's front of the buffer pool, where the two
	// connection-level queues and the out-of-order copies live.
	bufs          *pool.Local
	dataFinQueued bool
	dataFinSent   bool
	dataFinAcked  bool
	pumping       bool
	dataFinSeq    uint64
	connRtx       sim.Timer

	// ---- data-level receive state ----
	rcvBuf buffer.ByteQueue
	// Built at the first out-of-order arrival (insertData); nil is empty.
	ofo              buffer.OfoQueue
	ofoBySubflow     map[int]int
	dataRcvNxt       uint64
	remoteDataFin    bool
	eofConsumed      bool
	remoteDataFinSeq uint64
	lastAdvertised   int

	stats ConnStats

	// Application callbacks (all optional).
	OnReadable           func()
	OnWritable           func()
	OnEstablished        func()
	OnClosed             func(error)
	OnSubflowEstablished func(*Subflow)
	OnFallback           func(reason string)
}

// newConnection builds the common parts of client and server connections.
func newConnection(mgr *Manager, cfg Config, isClient bool) *Connection {
	cfg = cfg.withDefaults()
	c := &Connection{
		mgr:         mgr,
		cfg:         cfg,
		sim:         mgr.host.Sim(),
		isClient:    isClient,
		mappingFree: sim.Local[pool.FreeList[txMapping]](mgr.host.Sim()),
		bufs:        sim.Local[pool.Local](mgr.host.Sim()),
		rwndLimit:   64 << 10,
	}
	c.subflows, c.usableScratch = c.inline.subflows[:0], c.inline.usable[:0]
	c.candScratch, c.usedRemote = c.inline.cands[:0], c.inline.usedRemote[:0]
	c.inflight = c.inline.inflight[:0]
	c.sndBuf.UsePool(c.bufs)
	c.rcvBuf.UsePool(c.bufs)
	if isClient && mgr.probeRec != nil {
		c.probe = mgr.probeRec
		c.member = mgr.probeMember
		c.connID = mgr.nextConnID
		mgr.nextConnID++
	}
	c.connRtx.Init(c.sim, func(a any) { a.(*Connection).onConnRetransmitTimeout() }, c)
	return c
}

// ---------------------------------------------------------------------------
// Public accessors
// ---------------------------------------------------------------------------

// MPTCPActive reports whether multipath operation was negotiated and is still
// in use.
func (c *Connection) MPTCPActive() bool { return c.mptcpActive && !c.fallback }

// Fallback reports whether the connection fell back to regular TCP.
func (c *Connection) Fallback() bool { return c.fallback || !c.mptcpActive }

// Established reports whether the connection can carry data.
func (c *Connection) Established() bool { return c.established && !c.closed }

// Closed reports whether the connection has fully terminated.
func (c *Connection) Closed() bool { return c.closed }

// Err returns the terminal error, if any.
func (c *Connection) Err() error { return c.err }

// Subflows returns the connection's current subflows.
func (c *Connection) Subflows() []*Subflow { return c.subflows }

// ReassemblySteps returns the cumulative number of search steps performed by
// the connection-level out-of-order queue; Figure 8 uses it (together with
// the micro-benchmarks in bench_test.go) as the receiver CPU-cost proxy.
func (c *Connection) ReassemblySteps() uint64 {
	if c.ofo == nil {
		return 0
	}
	return c.ofo.Steps()
}

// Stats returns a copy of the connection counters.
func (c *Connection) Stats() ConnStats { return c.stats }

// Config returns the connection configuration.
func (c *Connection) Config() Config { return c.cfg }

// SenderMemory returns the bytes written but not yet DATA_ACKed — the
// sender-side memory metric of Figure 5.
func (c *Connection) SenderMemory() int { return c.unackedBytes() }

// ReceiverMemory returns the bytes held in the connection-level receive and
// reassembly queues plus the subflow-level out-of-order queues — the
// receiver-side memory metric of Figure 5.
func (c *Connection) ReceiverMemory() int { return c.receiveBufferUsed() }

// ---------------------------------------------------------------------------
// Application byte-stream API
// ---------------------------------------------------------------------------

// Write queues application data and returns the number of bytes accepted
// (bounded by the connection-level send buffer). It never blocks.
func (c *Connection) Write(data []byte) int {
	space := c.SendBufferSpace()
	if space == 0 {
		return 0
	}
	if len(data) > space {
		data = data[:space]
	}
	c.sndBuf.Append(data)
	c.stats.BytesWritten += uint64(len(data))
	c.pump()
	return len(data)
}

// SendBufferSpace returns how many bytes the next Write would accept: 0 once
// the connection is closed, has failed or Close was called, else the free
// space in the send buffer. A caller that generates its payload can size the
// next chunk to it instead of producing bytes Write would turn away.
func (c *Connection) SendBufferSpace() int {
	if c.closed || c.err != nil || c.dataFinQueued {
		return 0
	}
	return maxInt(c.sendBufferSpace(), 0)
}

// sendBufferSpace returns the free space in the connection-level send buffer,
// honouring Mechanism 3's autotuned limit.
func (c *Connection) sendBufferSpace() int {
	return c.effectiveSendBuffer() - c.unackedBytes()
}

// effectiveSendBuffer implements Mechanism 3 (buffer autotuning): the send
// buffer grows toward 2·Σxᵢ·RTTmax but never beyond the configured maximum.
// Like the kernel's autotuning it only ever grows (shrinking it below the
// data already in flight would starve the connection into a smaller and
// smaller window). Once the autotuned size reaches the maximum the result is
// the maximum for good, so the per-subflow sum is skipped.
func (c *Connection) effectiveSendBuffer() int {
	if !c.cfg.AutoTuneBuffers || c.Fallback() || c.autotunedSndBuf >= c.cfg.SendBufBytes {
		return c.cfg.SendBufBytes
	}
	return c.autotuneSendBuffer()
}

// autotuneSendBuffer is effectiveSendBuffer's Mechanism 3 computation.
func (c *Connection) autotuneSendBuffer() int {
	var rate float64 // bytes per second
	var rttMax time.Duration
	usable := 0
	for _, s := range c.subflows {
		if !s.Usable() {
			continue
		}
		usable++
		rtt := s.ep.SRTT()
		if rtt <= 0 {
			rtt = time.Millisecond
		}
		rate += float64(s.ep.Cwnd()) / rtt.Seconds()
		if rtt > rttMax {
			rttMax = rtt
		}
	}
	want := 128 << 10
	if usable > 0 && rttMax > 0 {
		if f := int(2 * rate * rttMax.Seconds()); f > want {
			want = f
		}
	}
	if want > c.autotunedSndBuf {
		c.autotunedSndBuf = want
	}
	return minInt(c.autotunedSndBuf, c.cfg.SendBufBytes)
}

// receiveWindow returns the connection-level receive window advertised on
// every subflow: the free space in the shared receive buffer (§3.3.1). The
// shared pool holds unread in-order data, connection-level out-of-order data
// and subflow-level out-of-order segments (whose data sequence numbers are
// not yet known), so all three count against the window.
func (c *Connection) receiveWindow() int {
	win := c.cfg.RecvBufBytes - c.receiveBufferUsed()
	if win < 0 {
		win = 0
	}
	c.lastAdvertised = win
	return win
}

func (c *Connection) receiveBufferUsed() int {
	used := c.rcvBuf.Len()
	if c.ofo != nil {
		used += c.ofo.Bytes()
	}
	for _, s := range c.subflows {
		if s.ep != nil {
			used += s.ep.ReceiveQueuedBytes()
		}
	}
	return used
}

// Read removes and returns up to max bytes of in-order connection-level data.
func (c *Connection) Read(max int) []byte {
	n := minInt(max, c.rcvBuf.Len())
	if n <= 0 {
		return nil
	}
	out := make([]byte, n)
	c.ReadInto(out)
	return out
}

// ReadInto copies up to len(p) bytes of in-order connection-level data into
// p, consuming them, and returns the number of bytes copied. Unlike Read it
// does not allocate (mptcpgo.Stream reads through it).
func (c *Connection) ReadInto(p []byte) int {
	if len(p) == 0 || c.rcvBuf.Len() == 0 {
		return 0
	}
	before := c.receiveWindowWouldBe()
	head := c.rcvBuf.HeadOffset()
	n := c.rcvBuf.CopyAt(p, head)
	c.rcvBuf.TrimTo(head + uint64(n))
	c.stats.BytesDelivered += uint64(n)
	// Window update: if reading freed a meaningful amount of the shared
	// buffer, tell the peer so a stalled sender can resume.
	after := c.receiveWindowWouldBe()
	if (before < c.mssEstimate() && after >= c.mssEstimate()) || after-before >= c.cfg.RecvBufBytes/4 {
		c.sendWindowUpdate()
	}
	return n
}

func (c *Connection) receiveWindowWouldBe() int {
	win := c.cfg.RecvBufBytes - c.receiveBufferUsed()
	if win < 0 {
		win = 0
	}
	return win
}

// ReadableBytes returns the number of bytes Read would return immediately.
func (c *Connection) ReadableBytes() int { return c.rcvBuf.Len() }

// EOF reports whether the peer has signalled the end of the data stream
// (DATA_FIN) and all data has been read.
func (c *Connection) EOF() bool { return c.eofConsumed && c.rcvBuf.Len() == 0 }

// WriteClosed reports whether the sending direction has been closed (Close
// was called and a DATA_FIN is queued or sent); further Writes return 0.
func (c *Connection) WriteClosed() bool { return c.dataFinQueued }

// Close closes the sending direction: a DATA_FIN is sent once all written
// data has been mapped to subflows (§3.4).
func (c *Connection) Close() {
	if c.closed || c.dataFinQueued {
		return
	}
	c.dataFinQueued = true
	c.pump()
}

// Abort terminates the connection immediately: every subflow is reset.
func (c *Connection) Abort() {
	if c.closed {
		return
	}
	for _, s := range c.subflows {
		s.ep.SendReset()
	}
	c.finish(ErrAborted)
}

func (c *Connection) abortFromPeer() {
	if c.closed {
		return
	}
	for _, s := range c.subflows {
		s.ep.SendReset()
	}
	c.finish(ErrReset)
}

// ErrReset mirrors the subflow-level reset error at the connection level.
var ErrReset = errors.New("mptcp: connection reset by peer")

// ---------------------------------------------------------------------------
// Sequence number translation
// ---------------------------------------------------------------------------

// wireDataSeq converts a relative (0-based) data sequence number of our own
// stream to the on-the-wire 64-bit value.
func (c *Connection) wireDataSeq(rel uint64) packet.DataSeq {
	return c.localIDSN + 1 + packet.DataSeq(rel)
}

// wireDataAck converts the connection-level cumulative receive point to the
// wire DATA_ACK value (it acknowledges the peer's stream).
func (c *Connection) wireDataAck() packet.DataSeq {
	return c.remoteIDSN + 1 + packet.DataSeq(c.dataRcvNxt)
}

// relDataSeqFromRemoteWire converts a wire data sequence number of the peer's
// stream to a relative offset.
func (c *Connection) relDataSeqFromRemoteWire(w packet.DataSeq) uint64 {
	return uint64(w - c.remoteIDSN - 1)
}

// relDataSeqFromLocalWire converts a wire DATA_ACK (which refers to our
// stream) to a relative offset.
func (c *Connection) relDataSeqFromLocalWire(w packet.DataSeq) uint64 {
	return uint64(w - c.localIDSN - 1)
}

// mssEstimate returns a representative MSS across subflows.
func (c *Connection) mssEstimate() int {
	for _, s := range c.subflows {
		if s.Usable() {
			return s.ep.EffectiveMSS()
		}
	}
	return 1460
}

// ---------------------------------------------------------------------------
// Subflow lifecycle
// ---------------------------------------------------------------------------

// newSubflow allocates the Subflow wrapper (the tcp.Endpoint is attached by
// the caller).
func (c *Connection) newSubflow(role SubflowRole, client bool) *Subflow {
	s := &Subflow{
		conn:    c,
		id:      c.nextSubflowID,
		addrID:  uint8(c.nextSubflowID),
		role:    role,
		client:  client,
		started: c.sim.Now(),
	}
	s.rxMappings = s.rxMappingsBuf[:0]
	c.nextSubflowID++
	c.subflows = append(c.subflows, s)
	c.stats.SubflowsOpened++
	if c.probe != nil && client {
		c.probe.Emit(c.member, probe.KindSubflowSYN, c.connID, int32(s.id), int64(s.addrID), joinFlag(role))
	}
	return s
}

// joinFlag encodes the subflow role for event payloads.
func joinFlag(role SubflowRole) int64 {
	if role == RoleJoin {
		return 1
	}
	return 0
}

// onSubflowEstablished runs when a subflow completes its TCP handshake.
func (c *Connection) onSubflowEstablished(s *Subflow) {
	if c.closed {
		return
	}
	if c.probe != nil {
		c.probe.Emit(c.member, probe.KindSubflowEstablished, c.connID, int32(s.id), int64(s.addrID), joinFlag(s.role))
		c.watchSubflow(s)
	}
	if s.role == RoleInitial && !c.established {
		c.established = true
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
		// Open additional subflows shortly after the first one settles.
		if c.isClient && c.MPTCPActive() {
			c.openAdditionalSubflowsAfter(addSubflowDelay)
		}
	}
	if s.role == RoleJoin && c.OnSubflowEstablished != nil {
		c.OnSubflowEstablished(s)
	}
	if s.role == RoleJoin && !c.isClient {
		// Joined subflows on the server side become immediately usable for
		// sending once validated (mpConfirmed set in OnSegmentReceived).
		s.established = true
	}
	c.pump()
}

// openAdditionalSubflowsAfter runs openAdditionalSubflows after d. Every client
// connection schedules one, so it goes through the event's closure-free form.
func (c *Connection) openAdditionalSubflowsAfter(d time.Duration) {
	c.sim.ScheduleArgsAtSeq(c.sim.Now()+d, c.sim.ReserveSeq(),
		func(a, _ any) { a.(*Connection).openAdditionalSubflows() }, c, nil)
}

// openAdditionalSubflows creates subflows for the local interfaces not yet in
// use, pairing each with the peer address advertised for it (or the address
// at the same index when the peer is simply multihomed). When
// SubflowsPerInterface is larger than one, several subflows (distinct source
// ports) are opened per interface.
func (c *Connection) openAdditionalSubflows() {
	if c.closed || !c.MPTCPActive() || !c.isClient {
		return
	}
	perIface := c.cfg.SubflowsPerInterface
	if perIface < 1 {
		perIface = 1
	}
	ifaces := c.mgr.host.Interfaces()
	// Candidate remote endpoints: the one we dialed plus any advertised.
	var remotesBuf [subflowsInline]packet.Endpoint
	remotes := append(append(remotesBuf[:0], c.dialCfg.remote), c.remoteAddrs...)
	idx := 0
	for _, ifc := range ifaces {
		if !ifc.Attached() {
			continue
		}
		// In multi-host topologies an interface may face a different peer
		// entirely (another client, a different server); only interfaces
		// whose path terminates at the connection's peer can carry subflows.
		if !c.ifaceReachesPeer(ifc, remotes) {
			continue
		}
		have := c.subflowCountOnInterface(ifc)
		// Prefer the remote address with the same "index" as this interface
		// (pairwise paths); fall back to the dialed address.
		remote := c.dialCfg.remote
		if idx < len(remotes) {
			remote = remotes[idx]
		}
		if slices.Contains(c.usedRemote, remote) && have == 0 && len(remotes) > idx+1 {
			remote = remotes[idx+1]
		}
		for ; have < perIface; have++ {
			c.dialJoinSubflow(ifc, remote)
		}
		idx++
	}
}

// ifaceReachesPeer reports whether the interface's path terminates at a host
// owning one of the connection's candidate remote addresses. Two-host
// topologies always pass (every client interface faces the server), so the
// historical pairing heuristic above is unchanged there.
func (c *Connection) ifaceReachesPeer(ifc *netem.Interface, remotes []packet.Endpoint) bool {
	p := ifc.Path()
	if p == nil {
		return false
	}
	far := p.Peer(ifc)
	if far == nil {
		return false
	}
	farHost := far.Host()
	for _, r := range remotes {
		if farHost.InterfaceByAddr(r.Addr) != nil {
			return true
		}
	}
	return false
}

// subflowCountOnInterface counts subflows bound to the interface.
func (c *Connection) subflowCountOnInterface(ifc *netem.Interface) int {
	n := 0
	for _, s := range c.subflows {
		if s.ep != nil && s.ep.Interface() == ifc {
			n++
		}
	}
	return n
}

// watchSubflow registers the subflow with the flight recorder's time-series
// sampler. The closure reads live endpoint state on each tick and emits a
// quantized coupled-alpha transition event when the group's alpha moves; it
// deregisters itself (with one final sample) once the subflow is gone.
func (c *Connection) watchSubflow(s *Subflow) {
	lastAlpha := int64(-1)
	c.probe.Watch(c.member, c.connID, int32(s.id), func(out *probe.Sample) bool {
		ep := s.ep
		if ep == nil {
			return false
		}
		ctrl := ep.Controller()
		out.Cwnd = int64(ctrl.Cwnd())
		out.Ssthresh = int64(ctrl.Ssthresh())
		out.SRTT = ep.SRTT()
		out.RTO = ep.RTO()
		out.Inflight = int64(ep.BytesInFlight())
		out.SentBytes = int64(s.bytesSent)
		out.ReinjBytes = int64(s.reinjBytes)
		if coupled, ok := ctrl.(*cc.Coupled); ok {
			out.Alpha = coupled.Alpha()
			if q := int64(out.Alpha * 1000); q != lastAlpha {
				lastAlpha = q
				c.probe.Emit(c.member, probe.KindCCAlpha, c.connID, int32(s.id), q, int64(c.ccGroup.TotalCwnd()))
			}
		}
		return !s.failed && ep.State() != tcp.StateClosed
	})
}

// dialJoinSubflow opens an MP_JOIN subflow from the given interface.
func (c *Connection) dialJoinSubflow(ifc *netem.Interface, remote packet.Endpoint) {
	s := c.newSubflow(RoleJoin, true)
	s.localNonce = c.sim.RNG().Uint32()
	cfg := c.cfg.subflowConfig()
	if c.probe != nil {
		cfg.Probe = s
	}
	ep, err := tcp.Dial(ifc, remote, cfg, s)
	if err != nil {
		c.removeSubflow(s)
		return
	}
	s.ep = ep
	c.markRemoteUsed(remote)
}

func (c *Connection) markRemoteUsed(remote packet.Endpoint) {
	if !slices.Contains(c.usedRemote, remote) {
		c.usedRemote = append(c.usedRemote, remote)
	}
}

// onSubflowFailed handles a subflow that was reset by MPTCP itself (HMAC or
// checksum failure, lost options).
func (c *Connection) onSubflowFailed(s *Subflow, reason string) {
	if c.probe != nil {
		var inflight int64
		if s.ep != nil {
			inflight = int64(s.ep.BytesInFlight())
		}
		c.probe.Emit(c.member, probe.KindSubflowFailed, c.connID, int32(s.id), 0, inflight)
		c.probe.Count(c.member, probe.CtrSubflowDeaths, 1)
	}
	c.reinjectSubflowData(s)
	c.removeSubflow(s)
	if len(c.usableSubflows()) == 0 && !c.closed {
		if !c.fallback {
			c.finish(fmt.Errorf("%w: last failure: %s", ErrAllSubflowsFailed, reason))
		}
	}
	c.pump()
}

// onSubflowClosed handles the underlying endpoint reaching CLOSED.
func (c *Connection) onSubflowClosed(s *Subflow, err error) {
	s.failed = true
	if c.closed {
		return
	}
	if c.probe != nil {
		if err != nil {
			// Unexpected death (retransmission-limit teardown, reset): part
			// of the failure taxonomy, A=1 distinguishes it from an MPTCP
			// option-level failure.
			var inflight int64
			if s.ep != nil {
				inflight = int64(s.ep.BytesInFlight())
			}
			c.probe.Emit(c.member, probe.KindSubflowFailed, c.connID, int32(s.id), 1, inflight)
			c.probe.Count(c.member, probe.CtrSubflowDeaths, 1)
		} else {
			c.probe.Emit(c.member, probe.KindSubflowClosed, c.connID, int32(s.id), 0, 0)
		}
	}
	if err != nil {
		// Unexpected subflow death: make sure its unacknowledged data gets
		// retransmitted elsewhere.
		c.reinjectSubflowData(s)
	}
	remaining := 0
	for _, other := range c.subflows {
		if other != s && !other.failed {
			remaining++
		}
	}
	if remaining == 0 {
		c.maybeFinishAfterLastSubflow(err)
		return
	}
	c.removeSubflow(s)
	c.pump()
}

// maybeFinishAfterLastSubflow decides the terminal state once no subflows
// remain.
func (c *Connection) maybeFinishAfterLastSubflow(err error) {
	cleanSend := !c.dataFinQueued || c.dataFinAcked || (c.Fallback() && c.unackedBytes() == 0)
	cleanRecv := c.eofConsumed || !c.remoteDataFin || c.Fallback()
	if err == nil && cleanSend && cleanRecv {
		c.finish(nil)
		return
	}
	if err == nil {
		err = ErrAllSubflowsFailed
	}
	c.finish(err)
}

func (c *Connection) removeSubflow(s *Subflow) {
	for i, other := range c.subflows {
		if other == s {
			c.subflows = append(c.subflows[:i], c.subflows[i+1:]...)
			break
		}
	}
	c.ccGroup.Remove(&s.coupled)
}

// usableSubflows returns the usable subflows in a scratch slice reused
// between calls: it runs several times per transmitted chunk, so it must not
// allocate. Callers may iterate the result but must not retain it across
// another usableSubflows call (pickSubflow keeps its own scratch for exactly
// that reason).
func (c *Connection) usableSubflows() []*Subflow {
	out := c.usableScratch[:0]
	for _, s := range c.subflows {
		if s.Usable() {
			out = append(out, s)
		}
	}
	c.usableScratch = out
	return out
}

// ---------------------------------------------------------------------------
// Address advertisement (§3.2) and mobility (§3.4)
// ---------------------------------------------------------------------------

// addrAdvertisements lists the ADD_ADDR options this host should send: one
// per additional local interface.
func (c *Connection) addrAdvertisements() []packet.AddAddrOption {
	var out []packet.AddAddrOption
	ifaces := c.mgr.host.Interfaces()
	for i, ifc := range ifaces {
		if i == 0 || !ifc.Attached() {
			continue // the primary address is already known to the peer
		}
		out = append(out, packet.AddAddrOption{
			AddrID: uint8(i),
			Addr:   ifc.Addr(),
			Port:   c.dialCfg.port,
		})
	}
	return out
}

// onRemoteAddressAdvertised records an ADD_ADDR from the peer and, on the
// client, considers opening a subflow toward it.
func (c *Connection) onRemoteAddressAdvertised(opt packet.AddAddrOption) {
	ep := packet.Endpoint{Addr: opt.Addr, Port: opt.Port}
	if ep.Port == 0 {
		ep.Port = c.dialCfg.remote.Port
	}
	for _, known := range c.remoteAddrs {
		if known == ep {
			return
		}
	}
	c.remoteAddrs = append(c.remoteAddrs, ep)
	if c.isClient && c.MPTCPActive() && c.established {
		c.openAdditionalSubflowsAfter(time.Millisecond)
	}
}

// onRemoteAddressRemoved closes subflows using a withdrawn address.
func (c *Connection) onRemoteAddressRemoved(opt packet.RemoveAddrOption) {
	for _, id := range opt.AddrIDs {
		for _, s := range c.subflows {
			if s.addrID == id && !s.failed {
				s.failed = true
				s.ep.SendReset()
				c.reinjectSubflowData(s)
			}
		}
	}
	c.pump()
}

// RemoveLocalInterface withdraws a local interface from the connection
// (mid-session interface loss, §3.4): every subflow bound to it is failed and
// its un-DATA-ACKed data reinjected onto surviving subflows, and a
// REMOVE_ADDR withdrawing the dead subflows' address IDs is queued on the
// survivors — the peer must learn of the loss through a working path because
// the dead one may swallow our RSTs.
func (c *Connection) RemoveLocalInterface(ifc *netem.Interface) {
	if c.closed {
		return
	}
	var victims []*Subflow
	for _, s := range c.subflows {
		if s.ep != nil && s.ep.Interface() == ifc && !s.failed {
			victims = append(victims, s)
		}
	}
	if len(victims) == 0 {
		return
	}
	removed := make([]uint8, 0, len(victims))
	for _, s := range victims {
		removed = append(removed, s.addrID)
		s.failed = true
		s.ep.SendReset()
		c.reinjectSubflowData(s)
		if c.probe != nil {
			c.probe.Emit(c.member, probe.KindAddrRemoved, c.connID, int32(s.id), int64(s.addrID), 0)
		}
	}
	if c.MPTCPActive() {
		for _, s := range c.usableSubflows() {
			s.pendingRemoveAddr = append(s.pendingRemoveAddr[:0], removed...)
			s.removeAddrRepeats = 3
			s.ep.ForceWindowUpdate()
		}
	}
	c.pump()
}

// RestoreLocalInterface reacts to an interface coming back (§3.4): the client
// re-opens subflows over it; the server re-arms its ADD_ADDR advertisements so
// the peer learns the address is usable again.
func (c *Connection) RestoreLocalInterface(ifc *netem.Interface) {
	if c.closed || !c.MPTCPActive() || !c.established {
		return
	}
	if c.probe != nil {
		c.probe.Emit(c.member, probe.KindAddrRestored, c.connID, -1, 0, 0)
	}
	if c.isClient {
		c.openAdditionalSubflowsAfter(time.Millisecond)
		return
	}
	if c.cfg.AdvertiseAddresses {
		for _, s := range c.usableSubflows() {
			if s.role == RoleInitial {
				s.addAddrRepeats = 3
				s.ep.ForceWindowUpdate()
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fallback and termination
// ---------------------------------------------------------------------------

// enterFallback drops the connection to regular TCP semantics on its (single)
// remaining subflow (§3.3.6, §7).
func (c *Connection) enterFallback(reason string, keep *Subflow) {
	if c.fallback {
		return
	}
	c.fallback = true
	c.stats.Fallbacks++
	if c.probe != nil {
		var keepID int32 = -1
		if keep != nil {
			keepID = int32(keep.id)
		}
		c.probe.Emit(c.member, probe.KindFallback, c.connID, keepID, 0, 0)
		c.probe.Count(c.member, probe.CtrFallbacks, 1)
	}
	// Terminate every other subflow; the surviving one carries the rest of
	// the connection as plain TCP.
	for _, s := range c.subflows {
		if s != keep && !s.failed {
			s.failed = true
			s.ep.SendReset()
		}
	}
	if keep != nil {
		c.subflows = append(c.subflows[:0], keep)
	}
	// From the fallback point onward incoming bytes map implicitly onto the
	// data stream; anchor the implicit mapping at the current delivery
	// point.
	if keep != nil && keep.ep != nil {
		keep.fallbackRxBase = uint64(keep.ep.RelativeRcvNxt())
		keep.fallbackRxAnchor = c.dataRcvNxt
		keep.fallbackTxBase = keep.ep.QueuedPayloadBytes()
		keep.fallbackTxAnchor = c.dataNxt
	}
	if c.OnFallback != nil {
		c.OnFallback(reason)
	}
	c.pump()
}

// finish terminates the connection and releases resources, the send queue's
// blocks among them (a block a live subflow's chunk still holds goes when the
// chunk lets go). The receive queue stays readable after the close (EOF
// depends on it): it gives its blocks back as the application reads them.
func (c *Connection) finish(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.err = err
	c.connRtx.Stop()
	c.sndBuf.Release()
	c.mgr.removeConnection(c)
	if c.OnClosed != nil {
		cb := c.OnClosed
		c.OnClosed = nil
		cb(err)
	}
}

// checkDone closes the subflows once both directions have completed and
// finishes the connection when every subflow is gone.
func (c *Connection) checkDone() {
	if c.closed {
		return
	}
	if c.Fallback() {
		// In fallback mode teardown follows the plain TCP FIN exchange on
		// the single subflow; nothing extra to do here.
		return
	}
	// Both directions are done: our DATA_FIN has been acknowledged and the
	// peer's DATA_FIN has been consumed. Close the subflows gracefully; the
	// connection finishes once the last one reaches CLOSED.
	if c.dataFinAcked && c.eofConsumed {
		for _, s := range c.subflows {
			if !s.failed && s.ep != nil && s.ep.State() != tcp.StateClosed {
				s.ep.Close()
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
