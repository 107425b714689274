package tcp

import (
	"errors"
	"fmt"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/cc"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
)

// Endpoint errors.
var (
	ErrReset          = errors.New("tcp: connection reset by peer")
	ErrTimeout        = errors.New("tcp: retransmission limit exceeded")
	ErrNotEstablished = errors.New("tcp: connection not established")
)

// Endpoint is one TCP connection endpoint (or one MPTCP subflow).
type Endpoint struct {
	sim   *sim.Simulator
	host  *netem.Host
	iface *netem.Interface

	local  packet.Endpoint
	remote packet.Endpoint

	cfg   Config
	hooks Hooks
	state State

	// ctrl is the controller the hooks supplied (Hooks.NewController), else reno.
	ctrl cc.Controller
	reno cc.NewReno

	// ---- send state ----
	iss          packet.SeqNum
	sndUna       packet.SeqNum
	sndNxt       packet.SeqNum
	peerWndShift uint8 // shares sndNxt's word, which keeps the struct inside a size class
	ownsSndBuf   bool  // sndBuf is the endpoint's own, not a hook-supplied one
	// mark is poisoned while the endpoint lies on the free list (Recycle).
	mark    pool.Mark
	sndWnd  int // peer advertised window in bytes (already scaled)
	peerMSS int

	sendQueue          []*chunk // not yet transmitted
	retransQ           []*chunk // transmitted, not fully acknowledged
	queuedBytes        int      // payload bytes across both queues
	queuedPayloadTotal uint64   // cumulative payload bytes ever queued
	// First backing stores of the two queues and of sackRanges; append
	// spills to the heap past them.
	sendQueueBuf  [sendQueueInline]*chunk
	retransQBuf   [retransQInline]*chunk
	sackRangesBuf [sackRangesInline]packet.SACKBlock

	// free recycles chunk structs and the DSS options attached to them once
	// their retransmission lifetime ends (fully acknowledged, popped from
	// the queues). The lists belong to the simulator, so every endpoint of a
	// shard shares them. Together with the block-pooled send queue and the
	// segment/payload pools this makes the steady-state send path
	// allocation-free.
	free *freeLists
	// bufs is the simulator's front of the buffer pool: segment payloads,
	// queue blocks and out-of-order copies come from it and go back to it.
	bufs *pool.Local

	// sndBuf holds the queued payload bytes exactly once; chunks reference
	// ranges of it (see chunk in tcp.go). It is the endpoint's own — trimmed
	// as the cumulative acknowledgement advances and released at teardown —
	// or, for an MPTCP subflow, its connection's (Hooks.SendQueue), which the
	// connection trims and releases.
	sndBuf *buffer.SendQueue

	dupAcks       int
	inRecovery    bool
	afterTimeout  bool // the recovery episode began with a timeout (enterRecovery)
	recoveryEnd   packet.SeqNum
	recoveryEpoch int
	peerSackOK    bool
	peerTSOK      bool
	tsRecent      uint32 // peer's most recent timestamp value (to echo)

	rtoTimer     sim.Timer
	persistTimer sim.Timer
	srtt         time.Duration
	rttvar       time.Duration
	baseRTT      time.Duration
	rto          time.Duration
	rtoBackoff   int
	// ccState is the last congestion phase reported through cfg.Probe; only
	// maintained when a probe is attached (endpoints start in slow start).
	ccState CCState

	finQueued bool

	// ---- receive state ----
	irs               packet.SeqNum
	rcvNxt            packet.SeqNum
	rcvWndShift       uint8
	lastAckWindow     uint16 // the last ACK's window field and DSS DATA_ACK (noteLastAck)
	lastAckHasDataAck bool
	lastAckDataAck    packet.DataSeq
	sackRanges        []packet.SACKBlock
	recvQueue         buffer.ByteQueue // in-order data awaiting application Read
	recvOfo           buffer.OfoQueue  // out-of-order subflow segments; nil until the first one
	finReceived       bool
	finPending        bool          // a FIN has arrived, at finSeq, perhaps ahead of missing data
	finSeq            packet.SeqNum // shares finReceived's word
	lastAdvertisedWnd int

	// timeWait is the record TIME_WAIT began with; it takes the endpoint's
	// place once the segment that began it has been answered (handOff).
	timeWait *timeWaitRecord

	stats Stats
	err   error

	// ---- application callbacks (plain TCP use) ----

	// OnReadable is invoked when new in-order data or EOF becomes available.
	OnReadable func()
	// OnWritable is invoked when send-buffer space frees up.
	OnWritable func()
	// OnEstablished is invoked when the connection reaches ESTABLISHED.
	OnEstablished func()
	// OnClosed is invoked when the endpoint fully closes; err is nil for a
	// graceful close.
	OnClosed func(err error)
}

// newEndpoint builds the shared parts of client and server endpoints.
func newEndpoint(iface *netem.Interface, local, remote packet.Endpoint, cfg Config, hooks Hooks) *Endpoint {
	cfg = cfg.WithDefaults()
	if hooks == nil {
		hooks = NopHooks{}
	}
	host := iface.Host()
	free := sim.Local[freeLists](host.Sim())
	e := free.endpoints.Get()
	*e = Endpoint{
		sim:     host.Sim(),
		free:    free,
		bufs:    sim.Local[pool.Local](host.Sim()),
		host:    host,
		iface:   iface,
		local:   local,
		remote:  remote,
		cfg:     cfg,
		hooks:   hooks,
		state:   StateClosed,
		peerMSS: cfg.MSS,
		rto:     initialRTO,
		sndWnd:  cfg.MSS, // until the peer advertises
	}
	e.sendQueue, e.retransQ = e.sendQueueBuf[:0], e.retransQBuf[:0]
	e.sackRanges = e.sackRangesBuf[:0]
	e.recvQueue.UsePool(e.bufs)
	if e.sndBuf = hooks.SendQueue(); e.sndBuf == nil {
		e.sndBuf, e.ownsSndBuf = new(buffer.SendQueue), true
		e.sndBuf.UsePool(e.bufs)
	}
	if e.ctrl = hooks.NewController(cc.Config{MSS: cfg.MSS}); e.ctrl == nil {
		e.reno = *cc.NewNewReno(cc.Config{MSS: cfg.MSS})
		e.ctrl = &e.reno
	}
	e.rtoTimer.Init(e.sim, func(a any) { a.(*Endpoint).onRTO() }, e)
	e.persistTimer.Init(e.sim, func(a any) { a.(*Endpoint).onPersist() }, e)
	return e
}

// Dial creates a client endpoint bound to iface and starts the three-way
// handshake toward remote. The hooks may be nil for plain TCP.
func Dial(iface *netem.Interface, remote packet.Endpoint, cfg Config, hooks Hooks) (*Endpoint, error) {
	host := iface.Host()
	local := packet.Endpoint{Addr: iface.Addr(), Port: host.AllocatePort()}
	return DialFrom(iface, local, remote, cfg, hooks)
}

// DialFrom is Dial with an explicit local endpoint (used when reopening a
// subflow from a specific port).
func DialFrom(iface *netem.Interface, local, remote packet.Endpoint, cfg Config, hooks Hooks) (*Endpoint, error) {
	e := newEndpoint(iface, local, remote, cfg, hooks)
	if err := e.host.Register(local, remote, e); err != nil {
		e.Recycle()
		return nil, err
	}
	e.iss = packet.SeqNum(e.sim.RNG().Uint32())
	e.sndUna, e.sndNxt = e.iss, e.iss
	e.setState(StateSynSent)
	syn := e.newChunk()
	syn.seq, syn.syn = e.sndNxt, true
	e.sndNxt = e.sndNxt.Add(1)
	e.retransQ = append(e.retransQ, syn)
	e.transmitChunk(syn, false)
	e.armRTO()
	return e, nil
}

// accept creates a server-side endpoint from a received SYN; used by
// Listener.
func accept(iface *netem.Interface, syn *packet.Segment, cfg Config, hooks Hooks) (*Endpoint, error) {
	local := syn.Dst
	remote := syn.Src
	e := newEndpoint(iface, local, remote, cfg, hooks)
	if err := e.host.Register(local, remote, e); err != nil {
		return nil, err
	}
	e.setState(StateSynReceived)
	e.processSYNOptions(syn)
	e.irs = syn.Seq
	e.rcvNxt = syn.Seq.Add(1)
	e.iss = packet.SeqNum(e.sim.RNG().Uint32())
	e.sndUna, e.sndNxt = e.iss, e.iss
	e.hooks.OnSegmentReceived(e, syn)
	synack := e.newChunk()
	synack.seq, synack.syn = e.sndNxt, true
	e.sndNxt = e.sndNxt.Add(1)
	e.retransQ = append(e.retransQ, synack)
	e.transmitChunk(synack, false)
	e.armRTO()
	return e, nil
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

// State returns the connection state.
func (e *Endpoint) State() State { return e.state }

// Interface returns the interface the endpoint is bound to.
func (e *Endpoint) Interface() *netem.Interface { return e.iface }

// Sim returns the simulator.
func (e *Endpoint) Sim() *sim.Simulator { return e.sim }

// Config returns the endpoint configuration (after defaulting).
func (e *Endpoint) Config() Config { return e.cfg }

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Err returns the terminal error, if any.
func (e *Endpoint) Err() error { return e.err }

// EffectiveMSS returns the MSS in use (minimum of ours and the peer's).
func (e *Endpoint) EffectiveMSS() int { return min(e.cfg.MSS, e.peerMSS) }

// Cwnd returns the congestion window in bytes.
func (e *Endpoint) Cwnd() int { return e.ctrl.Cwnd() }

// Controller returns the congestion controller (the MPTCP layer uses it for
// Mechanisms 2 and 4).
func (e *Endpoint) Controller() cc.Controller { return e.ctrl }

// SRTT returns the smoothed round-trip time estimate.
func (e *Endpoint) SRTT() time.Duration {
	if e.srtt == 0 {
		return initialRTO / 2
	}
	return e.srtt
}

// BaseRTT returns the minimum RTT observed (the propagation estimate used by
// Mechanism 4's cwnd capping).
func (e *Endpoint) BaseRTT() time.Duration {
	if e.baseRTT == 0 {
		return e.SRTT()
	}
	return e.baseRTT
}

// RTO returns the current retransmission timeout.
func (e *Endpoint) RTO() time.Duration { return e.backedOffRTO() }

// BytesInFlight returns the number of un-acknowledged sequence-space bytes.
func (e *Endpoint) BytesInFlight() int { return int(e.sndNxt.DiffFrom(e.sndUna)) }

// RelativeSndUna returns how many payload bytes of ours the peer has
// cumulatively acknowledged (the subflow-level acknowledgement point as an
// offset from the first payload byte).
func (e *Endpoint) RelativeSndUna() uint32 {
	d := e.sndUna.DiffFrom(e.iss.Add(1))
	if d < 0 {
		return 0
	}
	return uint32(d)
}

// RelativeRcvNxt returns how many in-order payload bytes have been received
// from the peer (offset from the peer's first payload byte).
func (e *Endpoint) RelativeRcvNxt() uint32 {
	d := e.rcvNxt.DiffFrom(e.irs.Add(1))
	if d < 0 {
		return 0
	}
	return uint32(d)
}

// QueuedPayloadBytes returns how many payload bytes have been queued for
// transmission so far (sent or not); the MPTCP layer uses it to compute the
// subflow-relative offset of the next chunk it hands down.
func (e *Endpoint) QueuedPayloadBytes() uint64 { return e.queuedPayloadTotal }

// PeerWindowScale returns the window-scale shift negotiated by the peer.
func (e *Endpoint) PeerWindowScale() uint8 { return e.peerWndShift }

// ISS returns our initial sequence number.
func (e *Endpoint) ISS() packet.SeqNum { return e.iss }

// IsEstablished reports whether the connection is in a state that can carry
// data.
func (e *Endpoint) IsEstablished() bool {
	switch e.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateFinWait2:
		return true
	default:
		return false
	}
}

// SendSpace returns how many payload bytes the endpoint could transmit right
// now given its congestion window, the peer window (unless connection-level
// flow control is in effect) and in-flight data.
func (e *Endpoint) SendSpace() int {
	if !e.IsEstablished() && e.state != StateSynSent && e.state != StateSynReceived {
		return 0
	}
	allowance := e.ctrl.Cwnd() - e.BytesInFlight()
	if !e.cfg.ConnectionLevelWindow {
		wndSpace := e.sndWnd - e.BytesInFlight()
		if wndSpace < allowance {
			allowance = wndSpace
		}
	}
	if allowance < 0 {
		allowance = 0
	}
	return allowance
}

// SendBufferSpace returns how many more payload bytes Write will accept.
func (e *Endpoint) SendBufferSpace() int {
	space := e.cfg.SendBufBytes - e.queuedBytes
	if space < 0 {
		space = 0
	}
	return space
}

// QueuedBytes returns payload bytes held in the send path (sent-unacked plus
// unsent). Only tests call it; it is exported for core's, which check a
// subflow's send path through it.
func (e *Endpoint) QueuedBytes() int { return e.queuedBytes }

// SendQueue returns the queue the endpoint's chunks reference: its own, or
// the one its hooks supplied.
func (e *Endpoint) SendQueue() *buffer.SendQueue { return e.sndBuf }

// ReceiveQueuedBytes returns payload bytes held in the receive path (in-order
// unread plus out-of-order).
func (e *Endpoint) ReceiveQueuedBytes() int {
	n := e.recvQueue.Len()
	if e.recvOfo != nil {
		n += e.recvOfo.Bytes()
	}
	return n
}

// ---------------------------------------------------------------------------
// Application API (plain TCP)
// ---------------------------------------------------------------------------

// Write queues application data for transmission and returns how many bytes
// were accepted (bounded by send-buffer space). It never blocks.
func (e *Endpoint) Write(data []byte) int {
	if e.state == StateClosed || e.finQueued || e.err != nil {
		return 0
	}
	space := e.SendBufferSpace()
	if space <= 0 {
		return 0
	}
	if len(data) > space {
		data = data[:space]
	}
	mss := e.EffectiveMSS()
	accepted := len(data)
	// One copy into the send queue; chunks reference MSS-sized ranges of it.
	off := e.sndBuf.TailOffset()
	e.sndBuf.Append(data)
	for n := accepted; n > 0; {
		l := min(mss, n)
		c := e.newChunk()
		e.setRange(c, off, l)
		e.enqueueChunk(c)
		off += uint64(l)
		n -= l
	}
	e.output()
	return accepted
}

// admitChunk runs the shared admission test for a pre-segmented chunk of the
// n bytes at send-queue offset off and, when it is accepted, returns a fresh
// chunk referencing them. The buffer-space test deliberately lets a chunk
// through when both queues are empty so a sender can always make progress
// (the MPTCP layer sizes chunks to the connection-level window).
func (e *Endpoint) admitChunk(off uint64, n int) (*chunk, bool) {
	if e.state == StateClosed || e.finQueued || e.err != nil {
		return nil, false
	}
	if n > e.SendBufferSpace() && len(e.sendQueue)+len(e.retransQ) > 0 {
		return nil, false
	}
	c := e.newChunk()
	e.setRange(c, off, n)
	return c, true
}

// SendChunk queues exactly one pre-segmented chunk — the n bytes at offset
// off of the hook-supplied send queue, which stay where they are — with its
// accompanying options (the MPTCP data path). It returns false if the chunk
// does not fit the send buffer. Ownership of the option objects transfers to
// the endpoint: they are recycled once the chunk is fully acknowledged, so
// callers must not retain them.
func (e *Endpoint) SendChunk(off uint64, n int, opts []packet.Option) bool {
	c, ok := e.admitChunk(off, n)
	if !ok {
		return false
	}
	c.opts = append(c.optsBuf[:0], opts...)
	c.ownsOpts = len(opts) > 0
	e.enqueueChunk(c)
	e.output()
	return true
}

// SendChunkWithOpt is SendChunk for the common single-option case (a data
// chunk carrying its DSS mapping); it avoids materializing an option slice
// per chunk. opt may be nil. Ownership of opt transfers to the endpoint in
// all cases: on success it is recycled when the chunk's retransmission
// lifetime ends, on failure immediately — callers must not touch the
// option after the call either way.
func (e *Endpoint) SendChunkWithOpt(off uint64, n int, opt packet.Option) bool {
	c, ok := e.admitChunk(off, n)
	if !ok {
		if d, isDSS := opt.(*packet.DSSOption); isDSS {
			e.recycleDSS(d)
		}
		return false
	}
	if opt != nil {
		c.opts = append(c.optsBuf[:0], opt)
		c.ownsOpts = true
	}
	e.enqueueChunk(c)
	e.output()
	return true
}

// Read removes and returns up to max bytes of in-order received data (plain
// TCP applications). It returns nil when nothing is buffered.
func (e *Endpoint) Read(max int) []byte {
	if e.recvQueue.Len() == 0 {
		return nil
	}
	data := e.recvQueue.Pop(max)
	e.maybeSendWindowUpdate()
	return data
}

// ReadableBytes returns the number of bytes Read would return.
func (e *Endpoint) ReadableBytes() int { return e.recvQueue.Len() }

// EOF reports whether the peer has closed its sending direction and all data
// has been read.
func (e *Endpoint) EOF() bool {
	return e.finReceived && e.recvQueue.Len() == 0
}

// Close closes the sending direction: a FIN is queued after any pending data.
func (e *Endpoint) Close() {
	if e.finQueued || e.state == StateClosed {
		return
	}
	e.finQueued = true
	fin := e.newChunk()
	fin.fin, fin.payOff = true, e.sndBuf.TailOffset()
	e.enqueueChunk(fin)
	e.output()
}

// SendAck emits an immediate pure acknowledgement (the MPTCP layer uses it to
// push DATA_ACK updates and DATA_FIN without waiting for data).
func (e *Endpoint) SendAck() {
	if e.state == StateClosed || e.state == StateSynSent {
		return
	}
	seg := e.makeSegment(packet.FlagACK, e.sndNxt, nil, nil)
	e.sendSegment(seg, false)
}

// SendReset sends a RST and closes the endpoint at once, with no error of its
// own: it is the one way to reset an endpoint, and how the MPTCP layer resets
// a subflow (§3.4).
func (e *Endpoint) SendReset() {
	if e.state == StateClosed {
		return
	}
	rst := e.makeSegment(packet.FlagRST|packet.FlagACK, e.sndNxt, nil, nil)
	e.sendSegment(rst, false)
	e.teardown(nil)
}

// ---------------------------------------------------------------------------
// Internal helpers shared across files
// ---------------------------------------------------------------------------

func (e *Endpoint) setState(s State) {
	if s == e.state {
		return
	}
	old := e.state
	e.state = s
	e.hooks.OnStateChange(e, old, s)
	if s == StateEstablished && e.OnEstablished != nil {
		e.OnEstablished()
	}
}

func (e *Endpoint) enqueueChunk(c *chunk) {
	e.sendQueue = append(e.sendQueue, c)
	e.queuedBytes += c.payLen
	e.queuedPayloadTotal += uint64(c.payLen)
}

// popChunk removes and returns the head of a chunk queue via the shared
// compacting drain (see buffer.CompactPrefix); batch drains compact once
// for the whole batch instead.
func popChunk(q []*chunk) ([]*chunk, *chunk) {
	c := q[0]
	return buffer.CompactPrefix(q, 1), c
}

// freeLists are the free lists all endpoints on one simulator share (see
// sim.Local): a short flow reuses the chunks and options of the flows that
// ran before it on the same shard instead of allocating its own.
type freeLists struct {
	endpoints pool.FreeList[Endpoint]
	chunks    pool.FreeList[chunk]
	dss       pool.FreeList[packet.DSSOption]
	timeWait  pool.FreeList[timeWaitRecord]
}

// Retire readies the lists for the next simulator (sim.Retirer).
func (f *freeLists) Retire() {
	f.endpoints.Retire()
	f.chunks.Retire()
	f.dss.Retire()
	f.timeWait.Retire()
}

// newChunk returns a zeroed chunk, recycled when possible.
func (e *Endpoint) newChunk() *chunk { return e.free.chunks.Get() }

// setRange points a chunk at the n bytes at send-queue offset off, moving its
// hold on the queue's blocks from its old range to the new one.
func (e *Endpoint) setRange(c *chunk, off uint64, n int) {
	e.sndBuf.Hold(off, n)
	e.sndBuf.Unhold(c.payOff, c.payLen)
	c.payOff, c.payLen = off, n
}

// freeChunk ends a chunk's retransmission lifetime: its hold on the send
// queue is dropped, option objects the chunk owns go back to their free
// list, and the chunk itself is zeroed and retained for reuse. Callers must
// not touch the chunk afterwards.
func (e *Endpoint) freeChunk(c *chunk) {
	e.sndBuf.Unhold(c.payOff, c.payLen)
	if c.ownsOpts {
		for _, o := range c.opts {
			if d, ok := o.(*packet.DSSOption); ok {
				e.recycleDSS(d)
			}
		}
	}
	*c = chunk{}
	e.free.chunks.Put(c)
}

// NewDSSOption returns a zeroed DSS option from the shard's free list.
// Ownership transfers to the endpoint when the option is attached to a chunk
// via SendChunkWithOpt; the endpoint recycles it once the chunk's data has
// been fully acknowledged. Callers must not retain the pointer beyond the
// SendChunkWithOpt call.
func (e *Endpoint) NewDSSOption() *packet.DSSOption { return e.free.dss.Get() }

func (e *Endpoint) recycleDSS(d *packet.DSSOption) {
	*d = packet.DSSOption{}
	e.free.dss.Put(d)
}

// teardown unregisters the endpoint from its host and closes it.
func (e *Endpoint) teardown(err error) {
	if e.state == StateClosed && e.err != nil {
		return
	}
	if r := e.timeWait; r != nil {
		// Closed by the segment that began TIME_WAIT, before the handoff.
		e.timeWait = nil
		r.release(e.free)
	}
	e.host.Unregister(e.local, e.remote)
	e.close(err)
}

// handOff ends an endpoint in TIME_WAIT once the segment that began it has
// been answered: the record takes the endpoint's four-tuple in the host's
// demultiplexer and answers for it until 2*MSL have passed, and the endpoint
// closes gracefully now, so nothing keeps it, or what sits above it, alive.
func (e *Endpoint) handOff() {
	r := e.timeWait
	e.timeWait = nil
	r.take(e)
	e.host.Replace(e.local, e.remote, r)
	e.close(nil)
}

// close stops the endpoint's timers, gives the data held out of order, which
// can no longer be delivered, back to the pool, drops the queued chunks' holds
// on the send queue and, when the queue is the endpoint's own, releases it;
// then it reports the terminal error. The receive queue stays readable:
// it gives its blocks back as the application reads them.
func (e *Endpoint) close(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
	e.rtoTimer.Stop()
	e.persistTimer.Stop()
	if e.recvOfo != nil {
		e.recvOfo.Release()
	}
	// The chunks stay queued, but nothing sends them again.
	for _, q := range [2][]*chunk{e.retransQ, e.sendQueue} {
		for _, c := range q {
			e.setRange(c, c.payOff, 0)
		}
	}
	if e.ownsSndBuf {
		e.sndBuf.Release()
	}
	e.setState(StateClosed)
	if e.OnClosed != nil {
		cb := e.OnClosed
		e.OnClosed = nil
		cb(err)
	}
}

// Recycle hands a closed endpoint back to its simulator's free list, where
// the next endpoint built on that simulator takes it: the MPTCP layer
// recycles a released connection's endpoints with it, and DialFrom one whose
// four-tuple the host refused. The caller guarantees
// that nothing reaches e any more — the host no longer demultiplexes to it
// (close unregistered it), and nothing above holds it. The chunks still
// queued go back to their own list; the timers, stopped at close, are stopped
// again so that no expiry can outlive the endpoint.
func (e *Endpoint) Recycle() {
	e.mark.Check("tcp.Endpoint")
	if e.state != StateClosed || e.timeWait != nil {
		panic(fmt.Sprintf("tcp: Recycle of %v, which has not closed", e))
	}
	e.rtoTimer.Stop()
	e.persistTimer.Stop()
	for _, q := range [2][]*chunk{e.retransQ, e.sendQueue} {
		for _, c := range q {
			e.freeChunk(c)
		}
	}
	free := e.free
	*e = Endpoint{}
	e.mark.Poison()
	free.endpoints.Put(e)
}

func (e *Endpoint) String() string {
	return fmt.Sprintf("tcp(%v->%v %v)", e.local, e.remote, e.state)
}
