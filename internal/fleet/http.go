package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/trace"
)

// HTTPClient is the resolved spec of one closed-loop client in an HTTP
// fleet: its access link, its request budget and its connection
// configuration. Specs are immutable once RunHTTP starts; shards read them
// concurrently.
type HTTPClient struct {
	// LinkName labels the client's access link in traces; defaults to
	// "access<i>".
	LinkName string
	// Link configures the client's access link (both directions mirrored when
	// BA is zero).
	Link netem.PathConfig
	// Requests is the client's closed-loop request budget (>= 1).
	Requests int
	// TransferSize is the response size the client requests.
	TransferSize int
	// Conn is the client's connection configuration.
	Conn core.Config
}

// HTTPSpec describes a fleet-http run: a pool of closed-loop clients, each on
// its own access link to a server, partitioned into shards that each own a
// server replica plus the shard's client hosts. With Common.Shared set, every
// client's download direction transits the shared bottleneck.
type HTTPSpec struct {
	Common
	// Clients lists the resolved per-client specs; the global client index is
	// the position in this slice.
	Clients []HTTPClient
}

// DefaultAccessLink derives the deterministic heterogeneous access link used
// by the stock fleet-http workload for global client index i: rates from 2 to
// 9.5 Mbps, RTTs from 10 to 190 ms, and ~250 ms of buffering — the
// manyclients example's link mix.
func DefaultAccessLink(i int) netem.PathConfig {
	rate := netem.Mbps(2 + 0.5*float64(i%16))
	return netem.SymmetricPath(rate,
		time.Duration(5+10*(i%10))*time.Millisecond,
		int(float64(rate)/8*0.250), 0)
}

// StarConfig adapts a connection configuration to the fleet's star
// topologies, where each client has one access link to its server: nothing
// useful for the server to advertise back (its other addresses would only
// open duplicate subflows over that link), and per-client buffers can stay
// modest at 128 KB.
func StarConfig(cfg core.Config) core.Config {
	cfg.AdvertiseAddresses = false
	cfg.SendBufBytes = 128 << 10
	cfg.RecvBufBytes = 128 << 10
	return cfg
}

// starServerConfig is the listener configuration of every star scenario's
// server replicas: the MPTCP default without address advertisement.
func starServerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.AdvertiseAddresses = false
	return cfg
}

// DefaultHTTPSpec builds the stock fleet-http workload: clients closed-loop
// clients on heterogeneous access links, requests MPTCP requests each for
// size-byte responses.
func DefaultHTTPSpec(seed uint64, clients, requests, size int) HTTPSpec {
	conn := StarConfig(core.DefaultConfig())
	specs := make([]HTTPClient, clients)
	for i := range specs {
		specs[i] = HTTPClient{
			Link:         DefaultAccessLink(i),
			Requests:     requests,
			TransferSize: size,
			Conn:         conn,
		}
	}
	return HTTPSpec{Common: Common{Seed: seed}, Clients: specs}
}

func (s HTTPSpec) withDefaults() HTTPSpec {
	s.Common = s.Common.withDefaults(DefaultDeadline)
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Requests <= 0 {
			c.Requests = 1
		}
		if c.TransferSize <= 0 {
			c.TransferSize = 64 << 10
		}
	}
	return s
}

// clientHostName names the global client i's host; zero-padding keeps names
// aligned in traces regardless of fleet size.
func clientHostName(i int) string { return fmt.Sprintf("c%05d", i) }

// RunHTTP executes the fleet-http scenario and returns the merged result.
// The merged output is byte-identical at any worker count for a fixed
// (seed, clients, shards).
func RunHTTP(spec HTTPSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	title := "sharded closed-loop HTTP server workload"
	if spec.Shared != nil {
		title = fmt.Sprintf("sharded closed-loop HTTP through shared %s (%s)",
			spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps))
	}
	return Run[*httpState, poolMerge](spec.Common, "fleet-http", title, len(spec.Clients), httpScenario{&spec},
		func(res *experiments.Result, outs []poolMerge) {
			table := experiments.NewTable(
				fmt.Sprintf("%d closed-loop clients across %d shards", len(spec.Clients), len(outs)),
				"shard", "clients", "completed", "failed", "req/s", "mean ms", "p95 ms", "MB", "events")
			addShardRows(table, outs)
			res.AddTable(table)
			res.AddSeries(shardSeries("req/s", "req/s", outs, (*poolMerge).requestsPerSec))
			res.AddSeries(shardSeries("latency p95", "ms", outs, func(m *poolMerge) float64 { return trace.Percentile(m.latencies, 95) }))
		})
}

// starState is one shard's live star workload between Setup and Collect: one
// pool per client host (either httpsim pool kind), in member order, and the
// count of pools still running.
type starState[P any] struct {
	pools     []P
	remaining int
}

func (st *starState[P]) done() bool { return st.remaining == 0 }

// buildStar materializes a star shard without running it: a "server" host
// with a listening replica (starServerConfig) on port 80, plus one client
// host per member on its own access link, whose download direction —
// responses flow server (B) to client (A) — carries the run's shared tag.
// link names and configures member gi's access link; newPool builds member
// gi's pool on its host and schedules its start.
func buildStar[P any](c *Common, sh *Shard,
	link func(gi int) (name string, cfg netem.PathConfig),
	newPool func(gi int, mgr *core.Manager, iface *netem.Interface, serverAddr packet.Addr, onDone func()) (P, error)) (*starState[P], error) {

	g := netem.GraphSpec{}
	g.AddHost("server")
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		name, cfg := link(gi)
		g.AddLink(netem.LinkSpec{Name: name, A: clientHostName(gi), B: "server", Config: cfg, SharedBA: c.sharedTag()})
	}
	if err := sh.Materialize(g); err != nil {
		return nil, err
	}
	if _, err := httpsim.StartServer(sh.Manager("server"), httpsim.ServerConfig{Port: 80, Conn: starServerConfig()}); err != nil {
		return nil, err
	}
	st := &starState[P]{remaining: sh.Members()}
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		mgr := sh.Manager(clientHostName(gi))
		mgr.SetProbe(sh.Probe, gi)
		iface := mgr.Host().Interfaces()[0]
		pool, err := newPool(gi, mgr, iface, iface.Path().Peer(iface).Addr(), func() { st.remaining-- })
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d client %d: %w", sh.Index, gi, err)
		}
		st.pools = append(st.pools, pool)
	}
	return st, nil
}

func accessLinkName(gi int) string { return fmt.Sprintf("access%d", gi) }

// httpScenario is the closed-loop workload: one single-client pool per
// client host.
type httpScenario struct{ spec *HTTPSpec }

type httpState = starState[*httpsim.ClientPool]

func (s httpScenario) Setup(sh *Shard) (*httpState, error) {
	spec := s.spec
	return buildStar(&spec.Common, sh,
		func(gi int) (string, netem.PathConfig) {
			c := &spec.Clients[gi]
			if c.LinkName != "" {
				return c.LinkName, c.Link
			}
			return accessLinkName(gi), c.Link
		},
		func(gi int, mgr *core.Manager, iface *netem.Interface, serverAddr packet.Addr, onDone func()) (*httpsim.ClientPool, error) {
			c := &spec.Clients[gi]
			pool, err := httpsim.NewClientPool(mgr, httpsim.ClientPoolConfig{
				Clients:       1,
				TotalRequests: c.Requests,
				TransferSize:  c.TransferSize,
				ServerAddr:    serverAddr,
				ServerPort:    80,
				Conn:          c.Conn,
				Iface:         iface,
				OnDone:        onDone,
			})
			if err == nil {
				// Stagger starts by global index so the fleet-wide handshake
				// herd is spread out the same way regardless of the partition.
				sh.Sim.Schedule(time.Duration(gi%97)*127*time.Microsecond, pool.Start)
			}
			return pool, err
		})
}

func (httpScenario) Done(st *httpState) bool { return st.done() }

func (httpScenario) Collect(sh *Shard, st *httpState) (poolMerge, error) {
	out := poolMerge{clients: sh.Members(), events: sh.probeEvents()}
	for _, p := range st.pools {
		out.add(p)
	}
	return out, nil
}
