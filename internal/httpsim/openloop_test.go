package httpsim

import (
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/workload"
)

// runOpenLoop builds a two-host topology with one bottleneck path and runs
// an open-loop pool to settlement.
func runOpenLoop(t *testing.T, cfg OpenLoopConfig, pathMbps float64) (OpenLoopResult, *OpenLoopPool) {
	t.Helper()
	s := sim.New(5)
	n := netem.Build(s, netem.Symmetric("bn", netem.Mbps(pathMbps), 5*time.Millisecond,
		int(netem.Mbps(pathMbps)/8/10), 0))
	conn := core.TCPOnlyConfig()
	if _, err := StartServer(core.NewManager(n.Server), ServerConfig{Port: 80, Conn: conn}); err != nil {
		t.Fatal(err)
	}
	cfg.ServerAddr = n.ServerAddr(0)
	cfg.ServerPort = 80
	cfg.Conn = conn
	cfg.Iface = n.Client.Interfaces()[0]
	pool, err := NewOpenLoopPool(core.NewManager(n.Client), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	deadline := cfg.Window + cfg.FlowDeadline + 10*time.Second
	for !pool.Done() && s.Now() < deadline && s.Step() {
	}
	return pool.Result(), pool
}

// TestOpenLoopUnderload: with offered load well under capacity every flow
// completes, nothing is dropped or shed, and the accounting adds up.
func TestOpenLoopUnderload(t *testing.T) {
	res, pool := runOpenLoop(t, OpenLoopConfig{
		Arrival:      workload.Poisson(20),
		Sizes:        workload.FixedSize(8 << 10),
		Rng:          sim.NewRNG(sim.DeriveSeed(5, 1)),
		Window:       3 * time.Second,
		FlowDeadline: 5 * time.Second,
	}, 10)
	if !pool.Done() {
		t.Fatal("pool never settled")
	}
	if res.Offered == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Completed != res.Offered || res.Dropped != 0 || res.Shed != 0 || res.Failed != 0 || res.Unfinished != 0 {
		t.Fatalf("underloaded pool lost flows: %+v", res)
	}
	if res.BytesReceived != uint64(res.Completed*8<<10) {
		t.Fatalf("received %d bytes for %d flows of 8KB", res.BytesReceived, res.Completed)
	}
	if res.OfferedMbps <= 0 || res.GoodputMbps <= 0 {
		t.Fatalf("missing load accounting: %+v", res)
	}
	if got := len(pool.LatencySamples()); got != res.Completed {
		t.Fatalf("%d latency samples for %d completions", got, res.Completed)
	}
}

// TestOpenLoopDeadlineDrops: a pool offered far more than the link carries
// must shed the excess via the flow deadline and still settle (no flow left
// in flight), with every arrival accounted exactly once.
func TestOpenLoopDeadlineDrops(t *testing.T) {
	res, pool := runOpenLoop(t, OpenLoopConfig{
		Arrival:      workload.Poisson(200),
		Sizes:        workload.FixedSize(64 << 10),
		Rng:          sim.NewRNG(sim.DeriveSeed(5, 2)),
		Window:       2 * time.Second,
		FlowDeadline: time.Second,
	}, 2) // 200/s × 64KB ≈ 100 Mbps offered on a 2 Mbps link
	if !pool.Done() {
		t.Fatal("overloaded pool never settled — drop-on-deadline is the anti-deadlock guarantee")
	}
	if res.Dropped == 0 {
		t.Fatal("gross overload produced no deadline drops")
	}
	if got := res.Completed + res.Dropped + res.Shed + res.Failed; got != res.Offered {
		t.Fatalf("accounting leak: completed+dropped+shed+failed = %d, offered = %d", got, res.Offered)
	}
	if res.PeakInFlight == 0 {
		t.Fatal("peak in-flight never recorded")
	}
}

// TestOpenLoopDeadlineAbortsWedgedFlows: when the path goes permanently dark
// mid-fetch, deadline-expired flows must be aborted (subflows reset), not
// gracefully closed — a DATA_FIN on a black-holed connection would strand the
// client retransmitting with backoff for minutes of simulated time after the
// pool has written the flow off. The regression check is that the client
// manager holds no connections once the pool settles. (The server side cannot
// be reclaimed the same way: the abort RSTs die on the dead path, so its
// connections legitimately retransmit into the black hole until their own
// MaxRTORetries teardown — the drain below checks that tail is bounded.)
func TestOpenLoopDeadlineAbortsWedgedFlows(t *testing.T) {
	s := sim.New(5)
	n := netem.Build(s, netem.Symmetric("bn", netem.Mbps(4), 5*time.Millisecond, 64<<10, 0))
	srvConn := core.TCPOnlyConfig()
	srvConn.SubflowTemplate.MaxRTORetries = 3
	if _, err := StartServer(core.NewManager(n.Server), ServerConfig{Port: 80, Conn: srvConn}); err != nil {
		t.Fatal(err)
	}
	cliMgr := core.NewManager(n.Client)
	pool, err := NewOpenLoopPool(cliMgr, OpenLoopConfig{
		Arrival:      workload.Poisson(40),
		Sizes:        workload.FixedSize(256 << 10),
		Rng:          sim.NewRNG(sim.DeriveSeed(5, 4)),
		Window:       time.Second,
		FlowDeadline: 2 * time.Second,
		ServerAddr:   n.ServerAddr(0),
		ServerPort:   80,
		Conn:         core.TCPOnlyConfig(),
		Iface:        n.Client.Interfaces()[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	s.ScheduleAt(300*time.Millisecond, func() { n.Path(0).SetDown(true) })
	for !pool.Done() && s.Now() < 60*time.Second && s.Step() {
	}
	res := pool.Result()
	if !pool.Done() {
		t.Fatalf("pool never settled after the path died: %+v", res)
	}
	if res.Dropped == 0 {
		t.Fatalf("dead path produced no deadline drops: %+v", res)
	}
	if live := len(cliMgr.Connections()); live != 0 {
		t.Fatalf("%d client connections still open at settlement — dropped flows were not aborted", live)
	}
	settled := s.Now()
	// Server-side teardown: 3 retries from a sub-second RTO give up within
	// seconds; a lingering drain here means teardown timers leaked.
	for s.Step() {
	}
	if s.Now() > settled+30*time.Second {
		t.Fatalf("events lingered %v past settlement — black-holed server connections never tore down", s.Now()-settled)
	}
}

// TestOpenLoopInFlightCap: with MaxInFlight=1 the pool sheds concurrent
// arrivals instead of dialing them, and shed flows still count as offered.
func TestOpenLoopInFlightCap(t *testing.T) {
	res, _ := runOpenLoop(t, OpenLoopConfig{
		Arrival:      workload.Poisson(100),
		Sizes:        workload.FixedSize(32 << 10),
		Rng:          sim.NewRNG(sim.DeriveSeed(5, 3)),
		Window:       2 * time.Second,
		FlowDeadline: 2 * time.Second,
		MaxInFlight:  1,
	}, 2)
	if res.Shed == 0 {
		t.Fatal("in-flight cap of 1 under 100 arrivals/s shed nothing")
	}
	if res.PeakInFlight > 1 {
		t.Fatalf("peak in-flight %d exceeds the cap of 1", res.PeakInFlight)
	}
	if got := res.Completed + res.Dropped + res.Shed + res.Failed; got != res.Offered {
		t.Fatalf("accounting leak: %d settled vs %d offered", got, res.Offered)
	}
}

// TestLiveConnectionsStayBounded: a finished flow leaves its manager at the
// FIN exchange, so the connections the two managers track are the flows in
// progress and nothing else. About 3000 16 KiB MPTCP flows arrive at
// 1000/s; every 100 ms of sim-time the test sums len(Connections()) over
// both hosts. The peak reads 139. While each end's connection lingered for
// its endpoint's 2 s TIME_WAIT, the same run peaked at 4190: two seconds of
// arrivals at each end. The bound is the measured peak plus 25%.
func TestLiveConnectionsStayBounded(t *testing.T) {
	s := sim.New(7)
	n := netem.Build(s, netem.Symmetric("p", netem.Mbps(1000), 5*time.Millisecond, 1<<20, 0))
	conn := core.DefaultConfig()
	srvMgr, cliMgr := core.NewManager(n.Server), core.NewManager(n.Client)
	if _, err := StartServer(srvMgr, ServerConfig{Port: 80, Conn: conn}); err != nil {
		t.Fatal(err)
	}
	pool, err := NewOpenLoopPool(cliMgr, OpenLoopConfig{
		Arrival:      workload.Poisson(1000),
		Sizes:        workload.FixedSize(16 << 10),
		Rng:          sim.NewRNG(sim.DeriveSeed(7, 1)),
		Window:       3 * time.Second,
		FlowDeadline: 3 * time.Second,
		ServerAddr:   n.ServerAddr(0),
		ServerPort:   80,
		Conn:         conn,
		Iface:        n.Client.Interfaces()[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	peak := 0
	var sample func()
	sample = func() {
		peak = max(peak, len(cliMgr.Connections())+len(srvMgr.Connections()))
		if !pool.Done() {
			s.Schedule(100*time.Millisecond, sample)
		}
	}
	s.Schedule(100*time.Millisecond, sample)
	for !pool.Done() && s.Now() < 20*time.Second && s.Step() {
	}
	res := pool.Result()
	if !pool.Done() || res.Completed < 2500 {
		t.Fatalf("the pool did not finish its flows: %+v", res)
	}
	const bound = 139 * 5 / 4
	t.Logf("%d flows; at most %d connections tracked at once", res.Completed, peak)
	if peak > bound {
		t.Fatalf("%d connections were tracked at once; bound %d (a finished flow's connection must leave at the FIN exchange)", peak, bound)
	}
}

// heldTuple handles nothing: it only holds a four-tuple on a host.
type heldTuple struct{}

func (heldTuple) HandleSegment(*netem.Interface, *packet.Segment) {}

// TestEphemeralPortsWrapPastTakenTuples dials 30 000 short flows through
// one client host, more than its 25 536 ephemeral ports, so its port counter
// wraps from 65535 to 40000 mid-run, where a connection that outlives the
// wrap holds 40000 toward the server. No dial may be refused: the host skips
// the taken tuple, as Linux's inet_hash_connect does.
func TestEphemeralPortsWrapPastTakenTuples(t *testing.T) {
	if testing.Short() {
		t.Skip("30 000 flows are not run in -short mode")
	}
	s := sim.New(9)
	n := netem.Build(s, netem.Symmetric("p", netem.Gbps(10), 100*time.Microsecond, 4<<20, 0))
	conn := core.TCPOnlyConfig()
	if _, err := StartServer(core.NewManager(n.Server), ServerConfig{Port: 80, Conn: conn}); err != nil {
		t.Fatal(err)
	}
	iface := n.Client.Interfaces()[0]
	server := packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}
	if err := n.Client.Register(packet.Endpoint{Addr: iface.Addr(), Port: 40000}, server, heldTuple{}); err != nil {
		t.Fatal(err)
	}
	pool, err := NewOpenLoopPool(core.NewManager(n.Client), OpenLoopConfig{
		Arrival:      workload.FixedRate(10000),
		Sizes:        workload.FixedSize(1 << 10),
		Rng:          sim.NewRNG(sim.DeriveSeed(9, 1)),
		Window:       3*time.Second + time.Millisecond,
		FlowDeadline: time.Second,
		ServerAddr:   server.Addr,
		ServerPort:   80,
		Conn:         conn,
		Iface:        iface,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	for !pool.Done() && s.Now() < 10*time.Second && s.Step() {
	}
	res := pool.Result()
	t.Logf("%+v", res)
	if res.Offered < 30000 || res.Failed != 0 || res.Completed != res.Offered {
		t.Fatalf("of %d flows through one host, %d completed and %d failed; want all completed", res.Offered, res.Completed, res.Failed)
	}
}
