// Package httpsim models the apachebench workload of Figure 11: a pool of
// closed-loop clients that each open a connection, send a small request,
// read a fixed-size response, close the connection and immediately issue the
// next request. The server answers every request with the configured
// transfer size.
//
// Both client and server run over the core package's connection API, so the
// same workload can be driven over MPTCP, over plain TCP (EnableMPTCP=false)
// and over TCP on a bonded link, which are exactly the three configurations
// the figure compares.
package httpsim

import (
	"encoding/binary"
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/trace"
)

// requestSize is the size of the client's request message: a fixed header
// carrying the desired response length.
const requestSize = 128

// ServerConfig configures the HTTP-like server.
type ServerConfig struct {
	Port uint16
	Conn core.Config
}

// Server answers requests with the requested number of bytes.
type Server struct {
	listener *core.Listener
	free     *freeLists
	// scratch is the shared request-read buffer: reads are consumed into it
	// and appended to the per-connection request buffer, so the read loop
	// does not allocate per call (the server runs on a single-threaded
	// simulator, so one buffer serves all connections).
	scratch []byte
	// chunk is the shared all-zero response body slab. Write copies it into
	// the send queue, and no handler ever mutates it, so one slab serves
	// every connection instead of a 32 KiB allocation per accepted flow.
	chunk []byte
	// Served counts completed responses.
	Served uint64
}

// StartServer installs the server on the given manager.
func StartServer(mgr *core.Manager, cfg ServerConfig) (*Server, error) {
	if cfg.Port == 0 {
		cfg.Port = 80
	}
	s := &Server{
		free:    sim.Local[freeLists](mgr.Host().Sim()),
		scratch: make([]byte, 4096),
		chunk:   make([]byte, 32<<10),
	}
	l, err := mgr.Listen(cfg.Port, cfg.Conn, func(c *core.Connection) {
		s.handle(c)
	})
	if err != nil {
		return nil, err
	}
	s.listener = l
	return s, nil
}

// freeLists are the httpsim structs of one simulator (sim.Local): a short
// flow reuses the flow and serverConn of one that closed before it on the
// same shard.
//
// A struct goes back to its list at the end of its connection's Closed
// event. By then its deadline, if it had one, is stopped (flow.finish), and
// it has cleared itself as the connection's handler, so a late event from
// the connection cannot reach the struct's next user. On the list it is
// poisoned (pool.Mark): under -tags poolcheck a stale call panics.
type freeLists struct {
	flows pool.FreeList[flow]
	conns pool.FreeList[serverConn]
}

// Retire readies the lists for the next simulator (sim.Retirer).
func (f *freeLists) Retire() {
	f.flows.Retire()
	f.conns.Retire()
}

// serverConn is the server's side of one connection: the request so far and
// what is left of the response. It is the connection's handler
// (core.Handler), and the struct comes from the shard's free list
// (freeLists), so a connection costs the server no object of its own.
type serverConn struct {
	s          *Server
	c          *core.Connection
	req        [requestSize]byte
	got        int // request bytes buffered in req
	responding bool
	remaining  int
	mark       pool.Mark
}

// handle makes a serverConn the handler of an accepted connection and
// releases it (core.Connection.Release): the server touches it only from
// inside its events.
func (s *Server) handle(c *core.Connection) {
	sc := s.free.conns.Get()
	*sc = serverConn{s: s, c: c}
	c.SetHandler(sc)
	c.Release()
}

// Established is a no-op: the server waits for the request.
func (*serverConn) Established() {}

// Closed puts the struct back on the free list (freeLists).
func (sc *serverConn) Closed(error) {
	sc.mark.Check("httpsim.serverConn")
	c, free := sc.c, sc.s.free
	c.SetHandler(nil)
	*sc = serverConn{}
	sc.mark.Poison()
	free.conns.Put(sc)
}

// Writable sends what the send buffer takes of the rest of the response.
func (sc *serverConn) Writable() {
	sc.mark.Check("httpsim.serverConn")
	s := sc.s
	for sc.remaining > 0 {
		n := len(s.chunk)
		if n > sc.remaining {
			n = sc.remaining
		}
		w := sc.c.Write(s.chunk[:n])
		if w == 0 {
			return
		}
		sc.remaining -= w
	}
	if sc.remaining == 0 && sc.responding {
		sc.responding = false
		s.Served++
		sc.c.Close()
	}
}

// Readable buffers the request and starts the response once it is whole.
func (sc *serverConn) Readable() {
	sc.mark.Check("httpsim.serverConn")
	for {
		n := sc.c.ReadInto(sc.s.scratch)
		if n == 0 {
			break
		}
		// Whatever arrives beyond a request before it is taken is dropped.
		sc.got += copy(sc.req[sc.got:], sc.s.scratch[:n])
	}
	if !sc.responding && sc.got >= requestSize {
		sc.got = 0
		sc.responding = true
		sc.remaining = int(binary.BigEndian.Uint32(sc.req[0:4]))
		sc.Writable()
	}
}

// fetcher is what the two pool kinds share: where flows go, the per-flow
// dial → request → drain → close sequence, and the record of completed flows.
type fetcher struct {
	mgr     *core.Manager
	sim     *sim.Simulator
	free    *freeLists
	iface   *netem.Interface
	server  packet.Endpoint
	connCfg core.Config
	// settle is the owning pool's end-of-flow hook (see fetch), next the method
	// it schedules to start a flow; both are bound once, not once per flow.
	settle func(outcome, received int)
	next   func()

	completed int
	bytes     uint64
	// latency holds one completion latency in milliseconds per completed
	// flow, in completion order: trace.Mean sums in slice order, so the order
	// is part of every result that reports a mean.
	latency []float64
	// doneFired is set by the owning pool once its run is over. A flow that
	// ends afterwards falls outside the measurement window and is dropped
	// unreported (see fetch).
	doneFired bool
	// live links the flows in flight, newest first, through the flows
	// themselves, so a pool can say which ones its window cut off; inFlight
	// counts them.
	live     *flow
	inFlight int

	// scratch is the shard's response-drain buffer (drainScratch): flows only
	// count received bytes, so the read loop consumes into it without
	// allocating and nothing ever reads it back.
	scratch []byte
	// req is the request header every flow sends. Connection.Write copies it
	// into the send queue before returning and the simulator is
	// single-threaded, so one buffer serves all flows; only the length field
	// is ever written.
	req [requestSize]byte
}

// drainScratch is the one drain buffer every fetcher on a simulator shares
// (sim.Local): a fleet builds a pool per host, and a buffer per pool was most
// of what an idle host cost. Its size is the read granularity, which feeds
// the receive-window-update heuristic, so it must not change.
type drainScratch [64 << 10]byte

// Retire keeps the buffer for the next simulator (sim.Retirer): every read
// writes the bytes it returns, so what a closed world left in it is never
// read.
func (*drainScratch) Retire() {}

func newFetcher(mgr *core.Manager, iface *netem.Interface, addr packet.Addr, port uint16, conn core.Config) (fetcher, error) {
	if port == 0 {
		port = 80
	}
	if iface == nil {
		ifaces := mgr.Host().Interfaces()
		if len(ifaces) == 0 {
			return fetcher{}, fmt.Errorf("httpsim: client host has no interfaces")
		}
		iface = ifaces[0]
	}
	s := mgr.Host().Sim()
	return fetcher{
		mgr:     mgr,
		sim:     s,
		free:    sim.Local[freeLists](s),
		iface:   iface,
		server:  packet.Endpoint{Addr: addr, Port: port},
		connCfg: conn,
		scratch: sim.Local[drainScratch](s)[:],
	}, nil
}

// Flow outcomes, as fetch reports them and as KindFlowDone carries them in
// its A payload.
const (
	flowFailed  = 0
	flowOK      = 1
	flowDropped = 2
)

// flow is one fetch in flight: its connection, its progress and its deadline.
// It is the connection's handler (core.Handler), the deadline is a timer it
// holds, and the struct comes from the shard's free list (freeLists), so a
// flow costs the client no object of its own.
type flow struct {
	f        *fetcher
	conn     *core.Connection
	size     int
	received int
	start    time.Duration
	settled  bool
	mark     pool.Mark
	deadline sim.Timer
	// prev and next link the flow into fetcher.live while it is in flight.
	prev, next *flow
}

// fetch runs one flow: dial the server, request size bytes, drain the
// response, close. A dial error is returned and nothing else happens.
// Otherwise f.settle runs exactly once, when the flow ends, with its outcome
// and the bytes it received: flowOK once the whole response and EOF have
// arrived (the flow is entered in completed, bytes and latency first),
// flowFailed when the connection closes short or with an error, flowDropped
// when a positive deadline passes first, in which case the connection is
// then aborted. The one exception is a flow that ends after doneFired: it is
// neither recorded nor reported.
//
// The connection is released (core.Connection.Release): the flow touches it
// only from its events and from its deadline, which settling the flow stops
// before the connection's Closed event returns; the flow itself goes back to
// the free list at the end of that event (freeLists).
func (f *fetcher) fetch(size int, deadline time.Duration) error {
	start := f.sim.Now()
	conn, err := f.mgr.Dial(f.iface, f.server, f.connCfg)
	if err != nil {
		return err
	}
	fl := f.free.flows.Get()
	*fl = flow{f: f, conn: conn, size: size, start: start, next: f.live}
	if f.live != nil {
		f.live.prev = fl
	}
	f.live = fl
	f.inFlight++
	if deadline > 0 {
		fl.deadline.Init(f.sim, func(a any) { a.(*flow).onDeadline() }, fl)
		fl.deadline.Reset(deadline)
	}
	conn.SetHandler(fl)
	conn.Release()
	return nil
}

func (fl *flow) finish(outcome int) {
	fl.mark.Check("httpsim.flow")
	if fl.settled {
		return
	}
	fl.settled = true
	fl.deadline.Stop()
	f := fl.f
	if fl.prev != nil {
		fl.prev.next = fl.next
	} else {
		f.live = fl.next
	}
	if fl.next != nil {
		fl.next.prev = fl.prev
	}
	fl.prev, fl.next = nil, nil
	f.inFlight--
	if f.doneFired {
		return
	}
	if outcome == flowOK {
		f.completed++
		f.bytes += uint64(fl.received)
		f.latency = append(f.latency, float64(f.sim.Now()-fl.start)/float64(time.Millisecond))
	}
	f.settle(outcome, fl.received)
}

func (fl *flow) onDeadline() {
	fl.finish(flowDropped)
	// Abort, not Close: a flow only reaches its deadline because it has
	// stalled (e.g. a subflow died mid-fetch), and a graceful DATA_FIN would
	// strand the wedged connection retransmitting long after the pool wrote
	// the flow off. Resetting every subflow reclaims both endpoints
	// immediately.
	fl.conn.Abort()
}

// Established sends the request.
func (fl *flow) Established() {
	fl.mark.Check("httpsim.flow")
	binary.BigEndian.PutUint32(fl.f.req[0:4], uint32(fl.size))
	fl.conn.Write(fl.f.req[:])
}

// Readable drains the response and closes at EOF.
func (fl *flow) Readable() {
	fl.mark.Check("httpsim.flow")
	for {
		n := fl.conn.ReadInto(fl.f.scratch)
		if n == 0 {
			break
		}
		fl.received += n
	}
	if fl.conn.EOF() {
		fl.conn.Close()
		fl.finish(outcomeOf(fl.received >= fl.size))
	}
}

// Writable is a no-op: the request fits the send buffer at once.
func (*flow) Writable() {}

// Closed settles the flow if it has not settled yet and puts the struct back
// on the free list (freeLists).
func (fl *flow) Closed(err error) {
	fl.finish(outcomeOf(err == nil && fl.received >= fl.size))
	c, free := fl.conn, fl.f.free
	c.SetHandler(nil)
	*fl = flow{}
	fl.mark.Poison()
	free.flows.Put(fl)
}

// oldestInFlight returns how long the oldest flow in flight has run, 0 when
// none is.
func (f *fetcher) oldestInFlight() (oldest time.Duration) {
	for fl := f.live; fl != nil; fl = fl.next {
		oldest = f.sim.Now() - fl.start // the list runs newest first
	}
	return oldest
}

func outcomeOf(ok bool) int {
	if ok {
		return flowOK
	}
	return flowFailed
}

// Done reports whether the pool's run is over: a closed-loop pool has
// exhausted its TotalRequests budget (never, for a deadline-bounded pool with
// TotalRequests == 0); an open-loop pool's arrival window has closed and
// every flow has settled.
func (f *fetcher) Done() bool { return f.doneFired }

// LatencySamples returns the per-flow completion latencies in milliseconds,
// in completion order. The slice is owned by the pool; callers that outlive
// it must copy.
func (f *fetcher) LatencySamples() []float64 { return f.latency }

// ClientPoolConfig configures the closed-loop client pool.
type ClientPoolConfig struct {
	// Clients is the number of concurrent closed-loop clients
	// (apachebench -c).
	Clients int
	// TotalRequests stops the benchmark after this many completed requests
	// (apachebench -n). Zero means run until the deadline.
	TotalRequests int
	// TransferSize is the response size requested from the server.
	TransferSize int
	// ServerAddr and ServerPort identify the server.
	ServerAddr packet.Addr
	ServerPort uint16
	// Conn is the connection configuration used for every request.
	Conn core.Config
	// Iface is the client interface to dial from.
	Iface *netem.Interface
	// OnDone, if set, is invoked exactly once when TotalRequests have
	// completed (or failed). Sharded drivers use it to stop stepping the
	// shard's simulator as soon as its last pool finishes.
	OnDone func()
}

// PoolResult summarises a benchmark run.
type PoolResult struct {
	Completed      int
	Failed         int
	Duration       time.Duration
	RequestsPerSec float64
	MeanLatency    time.Duration
	P95Latency     time.Duration
	BytesReceived  uint64
	// Unfinished requests were still in flight when the window closed; the
	// latencies above leave them out. OldestUnfinished is the age of the
	// oldest of them then.
	Unfinished       int
	OldestUnfinished time.Duration
}

// ClientPool drives the closed-loop clients.
type ClientPool struct {
	fetcher
	cfg     ClientPoolConfig
	started time.Duration

	failed int
	// finishedAt records when the TotalRequests-th request completed, so
	// Result measures the actual benchmark window rather than however far the
	// caller happened to run the simulator afterwards; unfinished and oldest
	// are the requests still in flight then (PoolResult.Unfinished).
	finishedAt time.Duration
	unfinished int
	oldest     time.Duration
}

// NewClientPool creates a pool bound to the client's manager.
func NewClientPool(mgr *core.Manager, cfg ClientPoolConfig) (*ClientPool, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.TransferSize <= 0 {
		cfg.TransferSize = 64 << 10
	}
	f, err := newFetcher(mgr, cfg.Iface, cfg.ServerAddr, cfg.ServerPort, cfg.Conn)
	if err != nil {
		return nil, err
	}
	p := &ClientPool{fetcher: f, cfg: cfg}
	p.settle, p.next = p.requestEnded, p.issueRequest
	return p, nil
}

// Start launches all clients at the current simulation time.
func (p *ClientPool) Start() {
	p.started = p.sim.Now()
	for i := 0; i < p.cfg.Clients; i++ {
		// Stagger client start slightly so the initial handshakes do not all
		// collide in one burst.
		delay := time.Duration(i) * 100 * time.Microsecond
		p.sim.Schedule(delay, p.next)
	}
}

// issueRequest fetches one response.
func (p *ClientPool) issueRequest() {
	if p.cfg.TotalRequests > 0 && p.completed+p.failed >= p.cfg.TotalRequests {
		return
	}
	if err := p.fetch(p.cfg.TransferSize, 0); err != nil {
		p.failed++
		p.noteProgress() // a dial failure can be the budget-exhausting event
		// Stay closed-loop, but back off a little: a synchronous dial failure
		// rescheduled at delay 0 would spin the event queue without advancing
		// simulated time.
		p.sim.Schedule(time.Millisecond, p.next)
	}
}

// requestEnded counts a request that did not complete and, closed loop,
// issues the next one at once. A request still in flight when the budget is
// reached never gets here (fetch drops it), so Completed never exceeds
// TotalRequests and the (count, window) pair stays consistent.
func (p *ClientPool) requestEnded(outcome, _ int) {
	if outcome != flowOK {
		p.failed++
	}
	p.noteProgress()
	p.sim.Schedule(0, p.next)
}

// noteProgress records the completion time of the final request and fires
// the OnDone hook once the configured request budget is exhausted.
func (p *ClientPool) noteProgress() {
	if p.cfg.TotalRequests <= 0 || p.completed+p.failed < p.cfg.TotalRequests || p.doneFired {
		return
	}
	p.doneFired = true
	p.finishedAt = p.sim.Now()
	p.unfinished, p.oldest = p.inFlight, p.oldestInFlight()
	if p.cfg.OnDone != nil {
		p.cfg.OnDone()
	}
}

// Result returns the benchmark summary as of the current simulation time. For
// pools with a TotalRequests budget that has been reached, the measurement
// window ends when the final request completed, not at the (possibly much
// later) time the simulator stopped.
func (p *ClientPool) Result() PoolResult {
	end, unfinished, oldest := p.finishedAt, p.unfinished, p.oldest
	if !p.doneFired {
		end = p.sim.Now()
		unfinished, oldest = p.inFlight, p.oldestInFlight()
	}
	dur := end - p.started
	res := PoolResult{
		Completed:        p.completed,
		Failed:           p.failed,
		Duration:         dur,
		BytesReceived:    p.bytes,
		MeanLatency:      time.Duration(trace.Mean(p.latency) * float64(time.Millisecond)),
		P95Latency:       time.Duration(trace.Percentile(p.latency, 95) * float64(time.Millisecond)),
		Unfinished:       unfinished,
		OldestUnfinished: oldest,
	}
	if dur > 0 {
		res.RequestsPerSec = float64(p.completed) / dur.Seconds()
	}
	return res
}
