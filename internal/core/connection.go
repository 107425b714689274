package core

import (
	"errors"
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
	// StallEpisodes counts the times the connection held written bytes while
	// DATA_ACK stood still for StallInterval (see checkStall).
	StallEpisodes uint64
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
	// released is set by Release: once finished, the connection goes back to
	// the free lists (retire).
	released bool
	// mark is poisoned while the connection lies on the free list.
	mark pool.Mark
	// err is the terminal error, recorded by finish, or by reset before the
	// subflows close so that the last close finishes with it.
	err error

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
	// free holds the simulator's free lists, which every connection of a
	// shard shares: the connection came from them, and its txMappings (one
	// per transmitted chunk) go back to them as cumulative DATA_ACKs pop them.
	free *freeLists
	// born is the simulator's next event seq when the connection was built:
	// an event scheduled earlier was scheduled for an earlier user of the
	// struct (see fireAdditionalSubflows).
	born uint64
	// samplers counts the flight-recorder samplers watching its subflows; a
	// finished connection waits for the last one to let go (retire).
	samplers int32
	// bufs is the simulator's front of the buffer pool, where the two
	// connection-level queues and the out-of-order copies live.
	bufs          *pool.Local
	dataFinQueued bool
	dataFinSent   bool
	dataFinAcked  bool
	pumping       bool
	// stalled is set while a counted stall episode lasts; lastProgress is
	// when DATA_ACK last advanced, or when written bytes arrived with none
	// outstanding (checkStall).
	stalled      bool
	dataFinSeq   uint64
	lastProgress time.Duration
	connRtx      sim.Timer

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

	// handler receives the four events SetHandler routes to it through
	// hooks, which forward to whatever handler is installed when they run.
	// The hooks capture only the connection and are bound once per struct:
	// both resets keep them (newConnection, recycle), so a connection from
	// the free lists, of this world or of one closed before, binds nothing.
	handler Handler
	hooks   struct {
		established, readable, writable func()
		closed                          func(error)
	}

	// Application callbacks (all optional).
	OnReadable           func()
	OnWritable           func()
	OnEstablished        func()
	OnClosed             func(error)
	OnSubflowEstablished func(*Subflow)
	OnFallback           func(reason string)
}

// Handler receives a connection's events once SetHandler has installed it:
// Established when it can carry data, Readable when data or EOF has arrived,
// Writable when send buffer space has opened, and Closed once, when it has
// finished. An application struct that implements it is handed its
// connection's events as the kernel hands sk_data_ready its socket, so a
// connection costs the application no closure of its own.
type Handler interface {
	Established()
	Readable()
	Writable()
	Closed(error)
}

// SetHandler routes the connection's OnEstablished, OnReadable, OnWritable
// and OnClosed to h, replacing what they held; SetHandler(nil) clears the
// handler and the four fields. The hooks it installs are bound once per
// struct, so on a recycled connection it allocates nothing.
func (c *Connection) SetHandler(h Handler) {
	c.handler = h
	if h == nil {
		c.OnEstablished, c.OnReadable, c.OnWritable, c.OnClosed = nil, nil, nil, nil
		return
	}
	hk := &c.hooks
	if hk.closed == nil {
		hk.established = func() { c.handler.Established() }
		hk.readable = func() { c.handler.Readable() }
		hk.writable = func() { c.handler.Writable() }
		hk.closed = func(err error) { c.handler.Closed(err) }
	}
	c.OnEstablished, c.OnReadable, c.OnWritable, c.OnClosed = hk.established, hk.readable, hk.writable, hk.closed
}

// newConnection builds the common parts of client and server connections,
// in a struct from the simulator's free list.
func newConnection(mgr *Manager, cfg Config, isClient bool) *Connection {
	cfg = cfg.withDefaults()
	s := mgr.host.Sim()
	free := sim.Local[freeLists](s)
	free.reap(s)
	c := free.conns.Get()
	*c = Connection{
		hooks:     c.hooks,
		mgr:       mgr,
		cfg:       cfg,
		sim:       s,
		isClient:  isClient,
		free:      free,
		born:      s.NextSeq(),
		bufs:      sim.Local[pool.Local](s),
		rwndLimit: 64 << 10,
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

// Subflows returns the connection's current subflows. The slice is the
// connection's own list, and a reset shrinks it in place (each closing
// subflow but the last leaves it), so a caller that resets subflows walks a
// copy.
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
	c.mark.Check("core.Connection")
	space := c.SendBufferSpace()
	if space == 0 {
		return 0
	}
	if len(data) > space {
		data = data[:space]
	}
	if c.unackedBytes() == 0 {
		c.lastProgress = c.sim.Now()
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
	return max(c.sendBufferSpace(), 0)
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
	return min(c.autotunedSndBuf, c.cfg.SendBufBytes)
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
	n := min(max, c.rcvBuf.Len())
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
	c.mark.Check("core.Connection")
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

// Abort terminates the connection immediately: every subflow is reset, and
// the connection finishes with ErrAborted.
func (c *Connection) Abort() { c.reset(ErrAborted) }

// reset resets every subflow (Abort, or the peer's MP_FASTCLOSE). err is
// recorded first, so nothing is sent meanwhile (pump and Write stop at it)
// and the last subflow's close finishes the connection with it.
func (c *Connection) reset(err error) {
	if c.closed {
		return
	}
	c.err = err
	c.kill(func(*Subflow) bool { return true })
	c.finish(err) // in case no subflow was left to close
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
	s := c.free.subflows.Get()
	*s = Subflow{
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
	c.sim.ScheduleArgsAtSeq(c.sim.Now()+d, c.sim.ReserveSeq(), fireAdditionalSubflows, c, nil)
}

// fireAdditionalSubflows is the openAdditionalSubflowsAfter one-shot. A short
// flow finishes before it fires, and it is not cancelled then, because that
// would change the event count; so a released connection's struct may lie on
// the free list (no simulator) or serve another connection (built after the
// one-shot was scheduled) by the time it fires. Either way it is stale and
// does nothing.
func fireAdditionalSubflows(a, _ any) {
	c := a.(*Connection)
	if c.sim == nil || c.sim.RunningSeq() < c.born {
		return
	}
	c.mark.Check("core.Connection")
	c.openAdditionalSubflows()
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
// deregisters itself (with one final sample) once the subflow is gone. The
// connection counts the samplers watching it: its struct and its subflows'
// stay off the free lists until the last final sample is taken (unwatch).
func (c *Connection) watchSubflow(s *Subflow) {
	lastAlpha := int64(-1)
	if !c.probe.Watch(c.member, c.connID, int32(s.id), func(out *probe.Sample) bool {
		s.mark.Check("core.Subflow")
		ep := s.ep
		if ep == nil {
			return c.unwatch()
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
		if !s.failed && ep.State() != tcp.StateClosed {
			return true
		}
		return c.unwatch()
	}) {
		return
	}
	c.samplers++
}

// unwatch drops a sampler's hold on the connection, retiring a finished,
// released one with the last, and returns false, what a sampler returns as it
// deregisters.
func (c *Connection) unwatch() bool {
	if c.samplers--; c.samplers == 0 && c.closed && c.released {
		c.retire()
	}
	return false
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

// kill resets the subflows victim picks; it is the one place the stack
// resets a subflow. The victims are marked failed before the first reset, so
// none of them is handed data while the others die, and each one's close
// does the rest (onSubflowClosed). It walks a copy of c.subflows, which every
// close but the last shrinks.
func (c *Connection) kill(victim func(*Subflow) bool) {
	var buf [8]*Subflow
	victims := buf[:0]
	for _, s := range c.subflows {
		if !s.failed && s.ep != nil && victim(s) {
			s.failed = true
			victims = append(victims, s)
		}
	}
	for _, s := range victims {
		s.ep.SendReset()
	}
}

// onSubflowClosed handles the underlying endpoint reaching CLOSED, and so
// every subflow death, whatever caused it: it records the one event, hands
// the un-DATA-ACKed data of a subflow that failed to the survivors, and
// removes the subflow, or, if it was the last, finishes the connection. A
// subflow already marked failed was reset by the stack itself (kill).
func (c *Connection) onSubflowClosed(s *Subflow, e *tcp.Endpoint) {
	err := e.Err()
	killed := s.failed
	s.failed = true
	if c.closed {
		return
	}
	died := killed || err != nil
	if c.probe != nil {
		if died {
			// Part of the failure taxonomy: A=1 for a transport-level death
			// (retransmission limit, the peer's reset), 0 for a reset of our
			// own.
			var transport int64
			if !killed {
				transport = 1
			}
			c.probe.Emit(c.member, probe.KindSubflowFailed, c.connID, int32(s.id), transport, int64(e.BytesInFlight()))
			c.probe.Count(c.member, probe.CtrSubflowDeaths, 1)
		} else {
			c.probe.Emit(c.member, probe.KindSubflowClosed, c.connID, int32(s.id), 0, 0)
		}
	}
	if died {
		c.reinjectSubflowData(s)
	}
	for _, other := range c.subflows {
		if other != s {
			c.removeSubflow(s)
			c.pump()
			return
		}
	}
	c.maybeFinishAfterLastSubflow(err)
}

// maybeFinishAfterLastSubflow decides the terminal state once no subflows
// remain: a reset's recorded error is the connection's.
func (c *Connection) maybeFinishAfterLastSubflow(err error) {
	if err == nil {
		err = c.err
	}
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

// onRemoteAddressRemoved resets the subflows using a withdrawn address.
func (c *Connection) onRemoteAddressRemoved(opt packet.RemoveAddrOption) {
	c.kill(func(s *Subflow) bool { return slices.Contains(opt.AddrIDs, s.addrID) })
}

// RemoveLocalInterface withdraws a local interface from the connection
// (mid-session interface loss, §3.4): every subflow bound to it is reset, its
// un-DATA-ACKed data reinjected onto surviving subflows, and a REMOVE_ADDR
// withdrawing the dead subflows' address IDs is queued on the survivors —
// the peer must learn of the loss through a working path because the dead
// one may swallow our RSTs.
func (c *Connection) RemoveLocalInterface(ifc *netem.Interface) {
	if c.closed {
		return
	}
	onIfc := func(s *Subflow) bool { return s.ep.Interface() == ifc }
	var buf [8]uint8
	removed := buf[:0]
	for _, s := range c.subflows {
		if !s.failed && s.ep != nil && onIfc(s) {
			removed = append(removed, s.addrID)
			if c.probe != nil {
				c.probe.Emit(c.member, probe.KindAddrRemoved, c.connID, int32(s.id), int64(s.addrID), 0)
			}
		}
	}
	if len(removed) == 0 {
		return
	}
	c.kill(onIfc)
	if c.MPTCPActive() {
		for _, s := range c.usableSubflows() {
			s.pendingRemoveAddr = append(s.pendingRemoveAddr[:0], removed...)
			s.removeAddrRepeats = 3
			s.ep.ForceWindowUpdate()
		}
	}
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
		c.probe.Emit(c.member, probe.KindFallback, c.connID, int32(keep.id), 0, 0)
		c.probe.Count(c.member, probe.CtrFallbacks, 1)
	}
	// Reset every other subflow; the kept one carries the rest of the
	// connection as plain TCP.
	c.kill(func(s *Subflow) bool { return s != keep })
	// From the fallback point onward incoming bytes map implicitly onto the
	// data stream; anchor the implicit mapping at the current delivery
	// point.
	keep.fallbackRxBase = uint64(keep.ep.RelativeRcvNxt())
	keep.fallbackRxAnchor = c.dataRcvNxt
	keep.fallbackTxBase = keep.ep.QueuedPayloadBytes()
	keep.fallbackTxAnchor = c.dataNxt
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
	if c.released {
		c.retire()
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

// ---------------------------------------------------------------------------
// Recycling
// ---------------------------------------------------------------------------

// Release hands the connection back to the stack. The caller promises that it
// touches the connection, its Subflows and their Endpoints from now on only
// while the connection is open — from inside its callbacks, or from a timer of
// its own that it stops when OnClosed runs — and never after OnClosed has
// returned. Once it has finished, a released connection's structs go back to
// the simulator's free lists (retire), and the next connection built on that
// simulator may reuse them. Release must come before OnClosed returns; a
// connection released later, like one nobody releases, is collected by the
// garbage collector once unreachable, as any object.
func (c *Connection) Release() {
	c.mark.Check("core.Connection")
	c.released = true
}

// freeLists are the free lists of the connections one simulator runs
// (sim.Local): a short flow reuses the Connection, Subflows and txMappings of
// a flow that finished before it on the same shard, and its tcp.Endpoints
// (tcp's own lists), instead of allocating its own.
type freeLists struct {
	conns    pool.FreeList[Connection]
	subflows pool.FreeList[Subflow]
	mappings pool.FreeList[txMapping]
	// retired are finished, released connections waiting for the event they
	// finished in to return (reap).
	retired []retiredConn
}

// retiredConn is a retired connection and the seq of the event it retired in.
type retiredConn struct {
	c   *Connection
	seq uint64
}

// retire queues a finished, released connection for the free lists once
// nothing can reach it any more. What still can, and how each is closed:
//   - the running event, which finished it deep inside an endpoint's
//     HandleSegment or a timer: reap takes the connection only in a later
//     event, when that one has returned;
//   - a flight-recorder sampler watching a subflow, which takes one final
//     sample on its next tick: the last one retires the connection (unwatch);
//   - an openAdditionalSubflows one-shot, which stays scheduled: it finds
//     itself stale (fireAdditionalSubflows);
//   - the timers of the connection and its endpoints: all are stopped once
//     it finishes, and recycle stops them again before the structs are reused.
//
// A connection one of whose subflow endpoints has not closed may still hear
// from it, so it is left to the garbage collector.
func (c *Connection) retire() {
	if c.samplers > 0 {
		return
	}
	for _, s := range c.subflows {
		if s.ep != nil && s.ep.State() != tcp.StateClosed {
			return
		}
	}
	c.free.retired = append(c.free.retired, retiredConn{c, c.sim.RunningSeq()})
}

// Reap recycles every connection retired on s. A world calls it as it
// closes, outside any event, so each retired connection's event has returned
// and nothing reaches it any more: without it, the connections that finish
// after the last dial of a run, which no newConnection reaps, would go to the
// garbage collector instead of the free lists the next world takes over.
func Reap(s *sim.Simulator) {
	f := sim.Local[freeLists](s)
	for _, r := range f.retired {
		r.c.recycle()
	}
	clear(f.retired)
	f.retired = f.retired[:0]
}

// Retire readies the lists for the next simulator once s is closed
// (sim.Retirer). A connection still retired, which Reap did not take, points
// into the closed world and is dropped.
func (f *freeLists) Retire() {
	clear(f.retired)
	f.retired = f.retired[:0]
	f.conns.Retire()
	f.subflows.Retire()
	f.mappings.Retire()
}

// reap recycles the retired connections whose event has returned: every one
// that retired in an event other than the running one.
func (f *freeLists) reap(s *sim.Simulator) {
	running := s.RunningSeq()
	kept := f.retired[:0]
	for _, r := range f.retired {
		if r.seq == running {
			kept = append(kept, r)
		} else {
			r.c.recycle()
		}
	}
	clear(f.retired[len(kept):])
	f.retired = kept
}

// recycle zeroes the connection but its hooks (SetHandler), its subflows,
// their endpoints and its in-flight mappings, and puts each on its free
// list, poisoned (pool.Mark). Data still received but unread or out of order
// goes back to the pool: a reset or timed-out connection finishes with some.
func (c *Connection) recycle() {
	c.mark.Check("core.Connection")
	free := c.free
	c.connRtx.Stop()
	if c.ofo != nil {
		c.ofo.Release()
	}
	c.rcvBuf.Release()
	for _, m := range c.inflight {
		*m = txMapping{}
		free.mappings.Put(m)
	}
	for _, s := range c.subflows {
		if s.ep != nil {
			s.ep.Recycle()
		}
		*s = Subflow{}
		s.mark.Poison()
		free.subflows.Put(s)
	}
	*c = Connection{hooks: c.hooks}
	c.mark.Poison()
	free.conns.Put(c)
}
