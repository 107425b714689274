package httpsim

import (
	"fmt"
	"math"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/workload"
)

// OpenLoopConfig configures an open-loop client pool: flows are spawned by an
// arrival process, fetch a size drawn from a distribution, and depart. The
// arrival schedule never waits for completions, so the pool can offer more
// load than the network can carry — the overload regimes a closed-loop pool
// structurally cannot reach.
type OpenLoopConfig struct {
	// Arrival generates the inter-arrival gaps. The pool owns the process
	// (stateful families keep phase state per pool); hand each pool its own
	// Thin() copy.
	Arrival workload.ArrivalProcess
	// Sizes draws each flow's transfer size.
	Sizes workload.SizeDist
	// Rng drives the arrival and size draws. It must be dedicated to this
	// pool (derived via sim.DeriveSeed from the scenario's root seed), never
	// the simulator's protocol RNG — sharing would entangle the offered
	// schedule with packet-level randomness.
	Rng *sim.RNG
	// Window is the arrival window: flows arrive in [start, start+Window).
	Window time.Duration
	// FlowDeadline aborts a flow that has not completed this long after its
	// arrival (0 = never). Dropping instead of waiting keeps overloaded runs
	// bounded and makes the drop count itself a measurement.
	FlowDeadline time.Duration
	// MaxInFlight sheds arrivals while this many flows are in flight
	// (0 = unlimited). Shed flows still count as offered load.
	MaxInFlight int

	// ServerAddr and ServerPort identify the server.
	ServerAddr packet.Addr
	ServerPort uint16
	// Conn is the connection configuration used for every flow.
	Conn core.Config
	// Iface is the client interface to dial from.
	Iface *netem.Interface
	// OnDone, if set, fires once when the arrival window has closed and
	// every arrived flow has settled (completed, failed, shed or dropped).
	OnDone func()
}

// OpenLoopResult summarises one pool's run.
type OpenLoopResult struct {
	// Offered counts every arrival the process generated (including shed
	// ones); OfferedBytes sums their drawn sizes.
	Offered      int
	OfferedBytes uint64
	// Completed flows received their full response; BytesReceived sums the
	// bytes they got.
	Completed     int
	BytesReceived uint64
	// Dropped flows hit FlowDeadline, Shed flows were refused at
	// MaxInFlight, Failed flows could not dial or were reset.
	Dropped int
	Shed    int
	Failed  int
	// Unfinished flows were still in flight when the result was taken (only
	// non-zero when the simulation deadline cut the run short).
	Unfinished int
	// PeakInFlight is the high-water mark of concurrently active flows.
	PeakInFlight int
	// Window is the configured arrival window; Elapsed stretches from the
	// pool's start to the last settled flow (>= Window under load).
	Window  time.Duration
	Elapsed time.Duration
	// OfferedMbps is the load the arrival process injected over the window;
	// GoodputMbps is what completed flows actually received over Elapsed.
	OfferedMbps float64
	GoodputMbps float64
}

// OpenLoopPool drives open-loop flows against an HTTP-like server.
type OpenLoopPool struct {
	fetcher
	cfg     OpenLoopConfig
	started time.Duration

	offered      int
	offeredBytes uint64
	dropped      int
	shed         int
	failed       int
	peakInFlight int
	arrivalsDone bool
	settledAt    time.Duration

	// rec/member mirror the manager's flight recorder at pool construction
	// (nil recorder = no tracing); flow settlements emit KindFlowDone.
	rec    *probe.Recorder
	member int
}

// NewOpenLoopPool creates a pool bound to the client's manager.
func NewOpenLoopPool(mgr *core.Manager, cfg OpenLoopConfig) (*OpenLoopPool, error) {
	if cfg.Arrival == nil || cfg.Sizes == nil || cfg.Rng == nil {
		return nil, fmt.Errorf("httpsim: open-loop pool needs Arrival, Sizes and Rng")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("httpsim: open-loop pool needs a positive arrival window")
	}
	f, err := newFetcher(mgr, cfg.Iface, cfg.ServerAddr, cfg.ServerPort, cfg.Conn)
	if err != nil {
		return nil, err
	}
	p := &OpenLoopPool{fetcher: f, cfg: cfg}
	p.latency = make([]float64, 0, expectedArrivals(cfg.Arrival.Rate()*cfg.Window.Seconds()))
	p.owner = p
	p.rec, p.member = mgr.Probe()
	return p, nil
}

// expectedArrivals sizes a pool's latency record, one sample per completed
// flow, for a window that expects mean arrivals: the mean plus four standard
// deviations of a Poisson count, so the record is allocated once, not grown
// from empty. The record is the pool's own and is never stashed for a later
// world: Collect hands it on (LatencySamples), and a fleet merges its shards'
// records after their worlds have closed. A window that expects more than
// maxPresized arrivals grows its record past that as it fills.
func expectedArrivals(mean float64) int {
	if !(mean > 0) {
		return 0
	}
	return int(min(mean+4*math.Sqrt(mean)+1, maxPresized))
}

const maxPresized = 1 << 20

// Start begins generating arrivals at the current simulation time.
func (p *OpenLoopPool) Start() {
	p.started = p.sim.Now()
	p.settledAt = p.started
	p.scheduleNextArrival()
}

// scheduleNextArrival draws the next gap; arrivals at or past the window end
// close the stream instead of firing.
func (p *OpenLoopPool) scheduleNextArrival() {
	gap := p.cfg.Arrival.Next(p.cfg.Rng)
	at := p.sim.Now() + gap
	if at >= p.started+p.cfg.Window {
		p.arrivalsDone = true
		p.checkDone()
		return
	}
	p.sim.ScheduleArgsAt(at, runNext, p, nil)
}

// next is an arrival: it spawns one flow and schedules the next arrival.
// The flow is started (or shed) before the next gap is drawn:
// scheduleNextArrival may discover the window is over and declare arrivals
// done, and that check must already see this arrival in flight or the pool
// would settle without it. The RNG draw order (size, then gap) is fixed
// either way.
func (p *OpenLoopPool) next() {
	size := p.cfg.Sizes.Sample(p.cfg.Rng)
	p.offered++
	p.offeredBytes += uint64(size)

	if p.cfg.MaxInFlight > 0 && p.inFlight >= p.cfg.MaxInFlight {
		p.shed++
		p.departed()
	} else {
		p.startFlow(size)
	}
	p.scheduleNextArrival()
}

// startFlow starts fetching size bytes.
func (p *OpenLoopPool) startFlow(size int) {
	if err := p.fetch(size, p.cfg.FlowDeadline); err != nil {
		p.failed++
		p.rec.Emit(p.member, probe.KindFlowDone, -1, -1, flowFailed, 0)
		p.departed()
		return
	}
	if p.inFlight > p.peakInFlight {
		p.peakInFlight = p.inFlight
	}
}

// flowEnded accounts the departure of a flow that was in flight.
func (p *OpenLoopPool) flowEnded(outcome, received int) {
	switch outcome {
	case flowDropped:
		p.dropped++
	case flowFailed:
		p.failed++
	}
	p.rec.Emit(p.member, probe.KindFlowDone, -1, -1, int64(outcome), int64(received))
	p.departed()
}

// departed records the departure time and fires OnDone once the window has
// closed and no flows remain in flight.
func (p *OpenLoopPool) departed() {
	p.settledAt = p.sim.Now()
	p.checkDone()
}

func (p *OpenLoopPool) checkDone() {
	if p.doneFired || !p.arrivalsDone || p.inFlight > 0 {
		return
	}
	p.doneFired = true
	if p.cfg.OnDone != nil {
		p.cfg.OnDone()
	}
}

// Result returns the pool summary as of the current simulation time.
func (p *OpenLoopPool) Result() OpenLoopResult {
	res := OpenLoopResult{
		Offered:       p.offered,
		OfferedBytes:  p.offeredBytes,
		Completed:     p.completed,
		BytesReceived: p.bytes,
		Dropped:       p.dropped,
		Shed:          p.shed,
		Failed:        p.failed,
		Unfinished:    p.inFlight,
		PeakInFlight:  p.peakInFlight,
		Window:        p.cfg.Window,
		Elapsed:       p.settledAt - p.started,
	}
	if p.cfg.Window > 0 {
		res.OfferedMbps = float64(p.offeredBytes) * 8 / p.cfg.Window.Seconds() / 1e6
	}
	if res.Elapsed > 0 {
		res.GoodputMbps = float64(p.bytes) * 8 / res.Elapsed.Seconds() / 1e6
	}
	return res
}
