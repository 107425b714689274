package httpsim

import (
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
)

// shard is a client and a server on one simulator, so their flows share one
// set of free lists.
type shard struct {
	s      *sim.Simulator
	n      *netem.Network
	cli    *core.Manager
	srvMgr *core.Manager
	srv    *Server
	free   *freeLists
}

func newShard(t *testing.T) *shard {
	t.Helper()
	s := sim.New(5)
	n := netem.Build(s, netem.DualGigabitSpec()...)
	sh := &shard{s: s, n: n, cli: core.NewManager(n.Client), srvMgr: core.NewManager(n.Server), free: sim.Local[freeLists](s)}
	srv, err := StartServer(sh.srvMgr, ServerConfig{Port: 80, Conn: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sh.srv = srv
	return sh
}

// pool returns a closed-loop pool of one 16 KiB request to port.
func (sh *shard) pool(t *testing.T, port uint16) *ClientPool {
	t.Helper()
	p, err := NewClientPool(sh.cli, ClientPoolConfig{
		Clients:       1,
		TotalRequests: 1,
		TransferSize:  16 << 10,
		ServerAddr:    sh.n.ServerAddr(0),
		ServerPort:    port,
		Conn:          core.DefaultConfig(),
		Iface:         sh.n.Client.Interfaces()[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// startFlow starts p and steps until its flow is in flight.
func (sh *shard) startFlow(t *testing.T, p *ClientPool) *flow {
	t.Helper()
	p.Start()
	for p.live == nil && sh.s.Step() {
	}
	if p.live == nil {
		t.Fatal("the flow never started")
	}
	return p.live
}

// quiesce runs until no event is left: both connections have closed and
// their structs are back on the free lists.
func (sh *shard) quiesce(t *testing.T) {
	t.Helper()
	if err := sh.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// peek returns the struct a FreeList would hand out next, leaving it there.
func peek[T any](l *pool.FreeList[T]) *T {
	x := l.Get()
	l.Put(x)
	return x
}

// runTwoFlows runs two one-request pools one after the other on one shard
// and returns the second pool's result, the first flow's structs as they lay
// on the free lists after it and those of the second. Unless reuse is set,
// the free lists are emptied between the two, so the second flow allocates
// its own.
func runTwoFlows(t *testing.T, reuse bool) (second PoolResult, fl1, fl2 *flow, sc1, sc2 *serverConn) {
	t.Helper()
	sh := newShard(t)
	first := sh.pool(t, 80)
	sh.startFlow(t, first)
	sh.quiesce(t)
	if res := first.Result(); res.Completed != 1 {
		t.Fatalf("first flow: %+v", res)
	}
	fl1, sc1 = peek(&sh.free.flows), peek(&sh.free.conns)
	if !reuse {
		*sh.free = freeLists{}
	}
	p := sh.pool(t, 80)
	if live := sh.startFlow(t, p); reuse && live != fl1 {
		t.Fatalf("the second flow is %p, want the first one's struct %p", live, fl1)
	}
	sh.quiesce(t)
	fl2, sc2 = peek(&sh.free.flows), peek(&sh.free.conns)
	return p.Result(), fl1, fl2, sc1, sc2
}

// TestSequentialFlowsReuseStructs: a flow that starts after another has
// closed on the same shard gets that flow's flow and serverConn structs, and
// it ends exactly as a flow on structs of its own does.
func TestSequentialFlowsReuseStructs(t *testing.T) {
	got, fl1, fl2, sc1, sc2 := runTwoFlows(t, true)
	if fl1 != fl2 || sc1 != sc2 {
		t.Fatalf("second flow used flow %p and serverConn %p, want the first one's %p and %p", fl2, sc2, fl1, sc1)
	}
	want, fresh1, fresh2, _, _ := runTwoFlows(t, false)
	if fresh1 == fresh2 {
		t.Fatal("the run without reuse reused the flow struct")
	}
	if got != want || got.Completed != 1 || got.BytesReceived != 16<<10 {
		t.Fatalf("second flow on recycled structs: %+v\non fresh structs: %+v", got, want)
	}
}

// TestRecycledFlowClearsCallbacks: when a flow or serverConn goes back to its
// free list at the end of its connection's Closed event, it is no longer the
// connection's handler and none of the four hooks SetHandler installed is
// left on the connection, so nothing the connection does later reaches
// whichever flow reuses the struct.
func TestRecycledFlowClearsCallbacks(t *testing.T) {
	sh := newShard(t)
	// The server's side: accept on a second port through the same Server,
	// and look at the connection once the struct's own Closed has run.
	var srvChecked bool
	if _, err := sh.srvMgr.Listen(81, core.DefaultConfig(), func(c *core.Connection) {
		sh.srv.handle(c)
		closed := c.OnClosed
		c.OnClosed = func(err error) {
			closed(err)
			srvChecked = true
			if c.OnEstablished != nil || c.OnReadable != nil || c.OnWritable != nil || c.OnClosed != nil {
				t.Error("the server's hooks are still installed after its serverConn was recycled")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	p := sh.pool(t, 81)
	fl := sh.startFlow(t, p)
	c := fl.conn
	closed := c.OnClosed
	var cliChecked bool
	c.OnClosed = func(err error) {
		closed(err)
		cliChecked = true
		if c.OnEstablished != nil || c.OnReadable != nil || c.OnWritable != nil || c.OnClosed != nil {
			t.Error("the flow's hooks are still installed after it was recycled")
		}
		if fl.conn != nil || fl.f != nil {
			t.Error("the recycled flow still points at its connection and fetcher")
		}
	}
	if err := sh.s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !cliChecked || !srvChecked {
		t.Fatalf("closed: client %v, server %v; want both", cliChecked, srvChecked)
	}
	if res := p.Result(); res.Completed != 1 {
		t.Fatalf("flow: %+v", res)
	}
}
