package fleet

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/trace"
	"mptcpgo/internal/workload"
)

// openLoopStream offsets the DeriveSeed stream indices used for per-host
// workload RNGs, keeping them disjoint from the shard-seed stream space
// (shard seeds use stream = shard index).
const openLoopStream = 0x0517_0000

// OpenLoopSpec describes the fleet-openloop scenario: an open-loop HTTP
// workload where a fleet-wide arrival process injects flows across Hosts
// client hosts (each on its own access link to a sharded server replica),
// every flow fetches a size drawn from Sizes, and flows that outlive
// FlowDeadline are dropped. Because arrivals never wait for completions, the
// offered load is a free parameter — rates past the fleet's capacity produce
// measurable overload (rising latency tails, drops, unfinished flows)
// instead of the closed-loop pools' self-limiting slowdown.
//
// Determinism by thinning: the root Arrival process is split host-by-host —
// host i draws from Arrival.Thin(1/Hosts) using an RNG derived from
// (Seed, openLoopStream+i) — so the offered schedule depends only on the
// spec, never on the shard partition or worker scheduling.
type OpenLoopSpec struct {
	// Common.Seed also roots the per-host workload streams. With
	// Common.Shared set this is the fleet-corelink scenario: every member's
	// download direction transits the one shared core link whose capacity all
	// shards jointly respect. Without the coupling a "fleet-scale" overload
	// is N disjoint per-shard overloads; with it, the goodput knee and the
	// p99 collapse appear at the global offered load against the shared rate
	// — overload becomes a system property.
	Common
	// Hosts is the number of client hosts (arrival points).
	Hosts int
	// Arrival is the fleet-wide arrival process (nil = Poisson at 100/s).
	Arrival workload.ArrivalProcess
	// Sizes draws per-flow transfer sizes (nil = the empirical web mix).
	Sizes workload.SizeDist
	// Window is the arrival window (default 5s of simulated time).
	Window time.Duration
	// FlowDeadline drops flows that have not completed this long after
	// arrival (default 10s; <0 disables dropping).
	FlowDeadline time.Duration
	// Link derives host i's access link (nil = DefaultAccessLink). Flows
	// connect with the fleet-http default: StarConfig over MPTCP.
	Link func(i int) netem.PathConfig
}

func (s OpenLoopSpec) withDefaults() OpenLoopSpec {
	if s.Arrival == nil {
		s.Arrival = workload.Poisson(100)
	}
	if s.Sizes == nil {
		s.Sizes = workload.WebMix()
	}
	if s.Window <= 0 {
		s.Window = 5 * time.Second
	}
	if s.FlowDeadline == 0 {
		s.FlowDeadline = 10 * time.Second
	}
	// Past Window + FlowDeadline + 5s every flow has settled; without a flow
	// deadline only the engine default bounds the run.
	deadline := s.Window + s.FlowDeadline + 5*time.Second
	if s.FlowDeadline < 0 {
		s.FlowDeadline = 0
		deadline = DefaultDeadline
	}
	s.Common = s.Common.withDefaults(deadline)
	if s.Link == nil {
		s.Link = DefaultAccessLink
	}
	return s
}

// openLoopOut folds httpsim.OpenLoopResults deterministically (host order
// within a shard, shard order across the fleet), keeping raw latency samples
// so fleet percentiles weight flows, not shards: one host's result, a
// shard's contribution or the fleet total.
type openLoopOut struct {
	hosts        int
	offered      int
	offeredBytes uint64
	completed    int
	bytes        uint64
	dropped      int
	shed         int
	failed       int
	unfinished   int
	window       time.Duration
	elapsed      time.Duration
	events       uint64
	// segments counts the wire segments every link of the shard serialized —
	// the numerator of the BenchmarkFleetSegmentRate headline metric. It is
	// accounted but deliberately kept out of the rendered tables so the
	// merged output stays byte-identical to earlier releases.
	segments uint64
	latencies
}

func (m *openLoopOut) add(p *httpsim.OpenLoopPool) {
	r := p.Result()
	m.merge(openLoopOut{offered: r.Offered, offeredBytes: r.OfferedBytes, completed: r.Completed,
		bytes: r.BytesReceived, dropped: r.Dropped, shed: r.Shed, failed: r.Failed, unfinished: r.Unfinished,
		window: r.Window, elapsed: r.Elapsed, latencies: p.LatencySamples()})
}

func (m *openLoopOut) merge(o openLoopOut) {
	m.hosts += o.hosts
	m.offered += o.offered
	m.offeredBytes += o.offeredBytes
	m.completed += o.completed
	m.bytes += o.bytes
	m.dropped += o.dropped
	m.shed += o.shed
	m.failed += o.failed
	m.unfinished += o.unfinished
	if o.window > m.window {
		m.window = o.window
	}
	if o.elapsed > m.elapsed {
		m.elapsed = o.elapsed
	}
	m.events += o.events
	m.segments += o.segments
	m.latencies = append(m.latencies, o.latencies...)
}

// offeredMbps is the injected load over the arrival window.
func (m *openLoopOut) offeredMbps() float64 {
	if m.window <= 0 {
		return 0
	}
	return float64(m.offeredBytes) * 8 / m.window.Seconds() / 1e6
}

// goodputMbps is the delivered load over the slowest member's window (the
// fleet-level elapsed time).
func (m *openLoopOut) goodputMbps() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / m.elapsed.Seconds() / 1e6
}

func (m *openLoopOut) row(label string) []string {
	return []string{label, strconv.Itoa(m.hosts), strconv.Itoa(m.offered), strconv.Itoa(m.completed),
		strconv.Itoa(m.dropped), strconv.Itoa(m.shed), strconv.Itoa(m.failed), strconv.Itoa(m.unfinished),
		fmt.Sprintf("%.2f", m.offeredMbps()), fmt.Sprintf("%.2f", m.goodputMbps()),
		fmt.Sprintf("%.2f", m.percentile(50)), fmt.Sprintf("%.2f", m.percentile(99)), fmt.Sprint(m.events)}
}

// percentile returns the p-th percentile of the latencies. An open-loop
// record is read only through percentiles, never summed in order, so the
// first call sorts it in place and later ones find it sorted.
func (m *openLoopOut) percentile(p float64) float64 {
	if !slices.IsSorted(m.latencies) {
		slices.Sort(m.latencies)
	}
	return trace.Rank(m.latencies, p)
}

// RunOpenLoop executes the open-loop workload and returns the merged result,
// byte-identical at any worker count for a fixed spec: as fleet-openloop when
// the shards are uncoupled, as fleet-corelink when spec.Shared couples them.
func RunOpenLoop(spec OpenLoopSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	id := "fleet-openloop"
	title := fmt.Sprintf("open-loop HTTP workload: %s arrivals, %s sizes", spec.Arrival.Name(), spec.Sizes.Name())
	shared := ""
	if spec.Shared != nil {
		id = "fleet-corelink"
		title = fmt.Sprintf("open-loop fleet contending for shared link %s (%s)",
			spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps))
		shared = ", shared " + spec.Shared.String()
	}
	return Run[*openLoopState, openLoopOut](spec.Common, id, title, spec.Hosts, openLoopScenario{&spec},
		func(res *experiments.Result, outs []openLoopOut) {
			table := experiments.NewTable(
				fmt.Sprintf("%d arrival hosts across %d shards, %v window%s", spec.Hosts, len(outs), spec.Window, shared),
				"shard", "hosts", "offered", "done", "dropped", "shed", "failed", "open",
				"offered Mbps", "goodput Mbps", "p50 ms", "p99 ms", "events")
			addShardRows(table, outs)
			if spec.Shared == nil {
				table.AddNote("open-loop: arrivals are injected by the process regardless of completions; dropped = hit the %v flow deadline, shed = refused at the in-flight cap, open = still in flight at the simulation deadline", spec.FlowDeadline)
			} else {
				table.AddNote("every download direction transits shared link %q: global goodput saturates at its %s no matter how the fleet is sharded — overload is a system property, not a per-shard one",
					spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps))
			}
			res.AddTable(table)
			res.AddSeries(shardSeries("goodput", "Mbps", outs, (*openLoopOut).goodputMbps))
			res.AddSeries(shardSeries("latency p99", "ms", outs, func(m *openLoopOut) float64 { return m.percentile(99) }))
		})
}

// openLoopScenario is the open-loop workload: one pool per host drawing from
// its thinned arrival stream.
type openLoopScenario struct{ spec *OpenLoopSpec }

type openLoopState = starState[*httpsim.OpenLoopPool]

func (s openLoopScenario) Setup(sh *Shard) (*openLoopState, error) {
	spec := s.spec
	fraction := 1 / float64(spec.Hosts)
	conn := StarConfig(core.DefaultConfig())
	return buildStar(&spec.Common, sh,
		func(gi int) (string, netem.PathConfig) { return accessLinkName(gi), spec.Link(gi) },
		func(gi int, mgr *core.Manager, iface *netem.Interface, serverAddr packet.Addr, onDone func()) (*httpsim.OpenLoopPool, error) {
			pool, err := httpsim.NewOpenLoopPool(mgr, httpsim.OpenLoopConfig{
				Arrival:      spec.Arrival.Thin(fraction),
				Sizes:        spec.Sizes,
				Rng:          sim.NewRNG(sim.DeriveSeed(spec.Seed, openLoopStream+uint64(gi))),
				Window:       spec.Window,
				FlowDeadline: spec.FlowDeadline,
				ServerAddr:   serverAddr,
				ServerPort:   80,
				Conn:         conn,
				Iface:        iface,
				OnDone:       onDone,
			})
			if err == nil {
				// All pools start at t=0: the arrival processes themselves
				// spread the load (their first gaps differ per host stream).
				sh.Sim.Schedule(0, pool.Start)
			}
			return pool, err
		})
}

func (openLoopScenario) Done(st *openLoopState) bool { return st.done() }

// Collect folds the pool results in host order and counts serialized
// segments.
func (openLoopScenario) Collect(sh *Shard, st *openLoopState) (openLoopOut, error) {
	out := openLoopOut{hosts: sh.Members(), events: sh.probeEvents(), segments: sh.segmentsSent()}
	for _, p := range st.pools {
		out.add(p)
	}
	if sh.Probe != nil {
		// Fold each host's access-link wire drops into its counter registry.
		for gi := sh.Lo; gi < sh.Hi; gi++ {
			pa := sh.Net.Paths[gi-sh.Lo]
			sa, sb := pa.LinkAB().Stats(), pa.LinkBA().Stats()
			sh.Probe.Count(gi, probe.CtrDrops, sa.DroppedQueue+sa.DroppedRandom+sb.DroppedQueue+sb.DroppedRandom)
		}
	}
	return out, nil
}
