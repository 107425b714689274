package mptcpgo

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/fleet"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/workload"
)

// sharedBottleneck validates a builder's SharedBottleneck declaration and
// lowers it to the engine's form.
func sharedBottleneck(name string, rateMbps float64) (*capacity.SharedLink, error) {
	if rateMbps <= 0 {
		return nil, fmt.Errorf("mptcpgo: shared bottleneck %q needs a positive rate, got %g Mbps", name, rateMbps)
	}
	return &capacity.SharedLink{Name: name, RateBps: netem.Mbps(rateMbps)}, nil
}

// ClientGroup declares a homogeneous group of closed-loop HTTP clients in a
// Fleet: how many, what access link each gets, and what each requests. A
// fleet concatenates its groups, so the global client index passed to Link
// runs across group boundaries.
type ClientGroup struct {
	// Name labels the group's access links in traces (default "access").
	Name string
	// Clients is the number of clients in the group (>= 1).
	Clients int
	// Link derives the access link for the global client index i; nil selects
	// the stock heterogeneous mix (2–9.5 Mbps, 10–190 ms RTT, 250 ms of
	// buffering).
	Link func(i int) Link
	// Requests is each client's closed-loop request budget (default 1).
	Requests int
	// TransferSize is the response size each request asks for (default 64 KB).
	TransferSize int
	// TCPOnly runs the group over single-path TCP instead of MPTCP.
	TCPOnly bool
	// Config overrides the connection configuration (nil = DefaultConfig
	// without address advertisement, or TCPConfig for TCPOnly groups).
	Config *Config
}

// Fleet is the sharded many-connection scenario builder: a topology template
// (per-client access links), one or more client groups, and a Run that
// partitions the clients into shards — each shard a private simulator with
// its own server replica — runs the shards in parallel and merges the
// per-shard results deterministically. The merged Result is byte-identical
// at any worker count for a fixed seed and shard count.
type Fleet struct {
	spec   fleet.HTTPSpec
	groups []ClientGroup
	err    error
}

// NewFleet starts an empty fleet whose shard seeds derive from the given
// root seed.
func NewFleet(seed uint64) *Fleet {
	return &Fleet{spec: fleet.HTTPSpec{Common: fleet.Common{Seed: seed}}}
}

// Group appends a client group. Declarations chain; errors are accumulated
// and reported by Run.
func (f *Fleet) Group(g ClientGroup) *Fleet {
	if g.Clients <= 0 {
		f.fail(fmt.Errorf("mptcpgo: fleet group %q has %d clients", g.Name, g.Clients))
		return f
	}
	f.groups = append(f.groups, g)
	return f
}

// Shards fixes the shard count. The shard count is part of the scenario — it
// decides how many clients share one server replica — so changing it changes
// the workload; the default is one shard per 64 clients.
func (f *Fleet) Shards(n int) *Fleet { f.spec.Shards = n; return f }

// Workers bounds how many shards run in parallel (default GOMAXPROCS). The
// worker count never changes the merged result.
func (f *Fleet) Workers(n int) *Fleet { f.spec.Workers = n; return f }

// Deadline caps each shard's simulated time (default 10 minutes).
func (f *Fleet) Deadline(d time.Duration) *Fleet { f.spec.Deadline = d; return f }

// Label overrides the result title.
func (f *Fleet) Label(s string) *Fleet { f.spec.Label = s; return f }

// Trace attaches the flight recorder: typed protocol events (and, when
// probeInterval > 0, per-subflow time series at that sim-time cadence) are
// written as fleet-http-trace.json and fleet-http-events.jsonl into dir.
// Capture never changes the scenario's results.
func (f *Fleet) Trace(dir string, probeInterval time.Duration) *Fleet {
	f.spec.Trace = experiments.TraceSpec{Dir: dir, ProbeInterval: probeInterval}
	return f
}

// Telemetry attaches a metrics plane to the run: live per-shard progress,
// phase profiling and the merged latency samples flow into it while the
// fleet executes. Attachment never changes the merged result.
func (f *Fleet) Telemetry(t *Telemetry) *Fleet { f.spec.Telemetry = planeOf(t); return f }

// SharedBottleneck couples every client's download direction to one named
// fleet-global resource of the given rate: the shards run in lock-stepped
// epoch windows and a deterministic max-min allocator divides the rate among
// them each window, so the fleet's aggregate goodput saturates at rateMbps no
// matter how the clients are sharded. weight gives client i's allocation
// weight (nil = equal); a shard's weight is the sum of its clients'.
func (f *Fleet) SharedBottleneck(name string, rateMbps float64, weight func(i int) float64) *Fleet {
	l, err := sharedBottleneck(name, rateMbps)
	if err != nil {
		f.fail(err)
		return f
	}
	f.spec.Shared, f.spec.Weight = l, weight
	return f
}

func (f *Fleet) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// Run resolves the groups into per-client specs, executes the sharded
// workload and returns the merged result.
func (f *Fleet) Run() (*Result, error) {
	if f.err != nil {
		return nil, f.err
	}
	if len(f.groups) == 0 {
		return nil, fmt.Errorf("mptcpgo: fleet has no client groups")
	}
	spec := f.spec
	i := 0
	for _, g := range f.groups {
		cfg := connConfigFor(g)
		for j := 0; j < g.Clients; j++ {
			c := fleet.HTTPClient{
				Requests:     g.Requests,
				TransferSize: g.TransferSize,
				Conn:         cfg,
			}
			if g.Link != nil {
				c.Link = g.Link(i).toPathConfig()
			} else {
				c.Link = fleet.DefaultAccessLink(i)
			}
			if g.Name != "" {
				c.LinkName = fmt.Sprintf("%s%d", g.Name, i)
			}
			spec.Clients = append(spec.Clients, c)
			i++
		}
	}
	return fleet.RunHTTP(spec)
}

// OpenLoop is the open-loop counterpart of Fleet: instead of a fixed
// closed-loop client population, a fleet-wide arrival process (Poisson by
// default) injects flows across the arrival hosts at a configured rate, each
// flow fetches a size drawn from a distribution, and flows that outlive the
// flow deadline are dropped. Because arrivals never wait for completions the
// offered load is a free parameter — rates past capacity produce measurable
// overload (latency tails, drops) instead of a self-limiting slowdown. The
// merged Result is byte-identical at any worker count for a fixed seed,
// host count and shard count.
type OpenLoop struct {
	spec fleet.OpenLoopSpec
	// arrivalSpec remembers the last process family chosen via Arrival, so
	// Rate can re-parameterize it instead of silently switching families.
	arrivalSpec string
	err         error
}

// NewOpenLoop starts an open-loop scenario with the given root seed: 64
// arrival hosts on the stock heterogeneous access mix, Poisson arrivals at
// 100 flows/s fleet-wide, web-mix sizes, a 5 s arrival window and a 10 s
// flow deadline. Override with the chained setters.
func NewOpenLoop(seed uint64) *OpenLoop {
	return &OpenLoop{spec: fleet.OpenLoopSpec{Common: fleet.Common{Seed: seed}, Hosts: 64}}
}

// Hosts sets the number of arrival hosts (each on its own access link).
func (o *OpenLoop) Hosts(n int) *OpenLoop {
	if n <= 0 {
		o.fail(fmt.Errorf("mptcpgo: open-loop fleet needs at least one host, got %d", n))
		return o
	}
	o.spec.Hosts = n
	return o
}

// Rate sets the fleet-wide mean arrival rate in flows per second, keeping
// the current process family (Poisson unless Arrival chose another).
func (o *OpenLoop) Rate(perSec float64) *OpenLoop {
	spec := o.arrivalSpec
	if spec == "" {
		spec = "poisson"
	}
	return o.Arrival(spec, perSec)
}

// Arrival selects the arrival process by spec — "poisson", "fixed" or
// "onoff[:on_ms,off_ms]" — with the given fleet-wide mean rate in flows/s.
func (o *OpenLoop) Arrival(spec string, perSec float64) *OpenLoop {
	p, err := workload.ParseArrival(spec, perSec)
	if err != nil {
		o.fail(err)
		return o
	}
	o.arrivalSpec = spec
	o.spec.Arrival = p
	return o
}

// SizeDist selects the flow-size distribution by spec: "fixed:<bytes>",
// "lognormal:<mu>,<sigma>", "pareto:<alpha>,<lo>,<hi>" or "webmix".
func (o *OpenLoop) SizeDist(spec string) *OpenLoop {
	d, err := workload.ParseSizeDist(spec)
	if err != nil {
		o.fail(err)
		return o
	}
	o.spec.Sizes = d
	return o
}

// Window sets the arrival window (how long the process injects flows).
func (o *OpenLoop) Window(d time.Duration) *OpenLoop { o.spec.Window = d; return o }

// FlowDeadline sets the per-flow drop deadline; flows that have not
// completed this long after arrival are aborted and counted as dropped.
func (o *OpenLoop) FlowDeadline(d time.Duration) *OpenLoop { o.spec.FlowDeadline = d; return o }

// Link overrides the access link template for arrival host i.
func (o *OpenLoop) Link(f func(i int) Link) *OpenLoop {
	o.spec.Link = func(i int) netem.PathConfig { return f(i).toPathConfig() }
	return o
}

// Shards fixes the shard count (part of the scenario, like Fleet.Shards).
func (o *OpenLoop) Shards(n int) *OpenLoop { o.spec.Shards = n; return o }

// Workers bounds parallel shard execution; never changes the merged result.
func (o *OpenLoop) Workers(n int) *OpenLoop { o.spec.Workers = n; return o }

// Label overrides the result title.
func (o *OpenLoop) Label(s string) *OpenLoop { o.spec.Label = s; return o }

// Trace attaches the flight recorder: typed protocol events (and, when
// probeInterval > 0, per-subflow time series at that sim-time cadence) are
// written as fleet-openloop-trace.json and fleet-openloop-events.jsonl
// (fleet-corelink-* with a SharedBottleneck) into dir. Capture never changes
// the scenario's results.
func (o *OpenLoop) Trace(dir string, probeInterval time.Duration) *OpenLoop {
	o.spec.Trace = experiments.TraceSpec{Dir: dir, ProbeInterval: probeInterval}
	return o
}

// Telemetry attaches a metrics plane to the run: live per-shard progress,
// phase profiling and the merged latency samples flow into it while the
// fleet executes. Attachment never changes the merged result.
func (o *OpenLoop) Telemetry(t *Telemetry) *OpenLoop {
	o.spec.Telemetry = planeOf(t)
	return o
}

// SharedBottleneck couples every arrival host's download direction to one
// named fleet-global resource of the given rate (the fleet-corelink
// scenario): the shards run in lock-stepped epoch windows and a deterministic
// max-min allocator divides the rate among them each window, so offered load
// past rateMbps produces a global goodput knee instead of per-shard ones.
// weight gives host i's allocation weight (nil = equal).
func (o *OpenLoop) SharedBottleneck(name string, rateMbps float64, weight func(i int) float64) *OpenLoop {
	l, err := sharedBottleneck(name, rateMbps)
	if err != nil {
		o.fail(err)
		return o
	}
	o.spec.Shared, o.spec.Weight = l, weight
	return o
}

func (o *OpenLoop) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// Run executes the sharded open-loop workload and returns the merged result.
func (o *OpenLoop) Run() (*Result, error) {
	if o.err != nil {
		return nil, o.err
	}
	return fleet.RunOpenLoop(o.spec)
}

// connConfigFor resolves a group's connection configuration.
func connConfigFor(g ClientGroup) Config {
	if g.Config != nil {
		return *g.Config
	}
	if g.TCPOnly {
		return fleet.StarConfig(TCPConfig())
	}
	return fleet.StarConfig(DefaultConfig())
}
