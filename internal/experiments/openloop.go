package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/trace"
	"mptcpgo/internal/workload"
)

// Offered-load sweep: an open-loop Poisson client drives a single bottleneck
// link at a grid of offered loads (fractions of the link capacity) for each
// of several flow-size distributions. Past the knee (offered ≈ capacity)
// goodput saturates and the completion-latency tail rises — the open-loop
// regime a closed-loop workload structurally cannot reach. Every grid point
// is a self-contained simulation, fanned across the sweep worker pool.

func init() {
	Register(Experiment{
		ID:    "openloop",
		Title: "Offered-load sweep — open-loop arrivals vs bottleneck capacity",
		Run:   runOpenLoopSweep,
	})
}

// openLoopCapacityMbps is the bottleneck access link of every sweep point.
const openLoopCapacityMbps = 10

// openLoopPoint is one grid point's measurements.
type openLoopPoint struct {
	offeredMbps float64
	goodput     float64
	completed   int
	dropped     int
	unfinished  int
	p50, p99    float64
}

func runOpenLoopSweep(opt Options) (*Result, error) {
	window := 8 * time.Second
	flowDeadline := 4 * time.Second
	factors := []float64{0.3, 0.6, 0.9, 1.2, 1.5, 2.0}
	if opt.Quick {
		window = 3 * time.Second
		flowDeadline = 2 * time.Second
		factors = []float64{0.5, 1.0, 1.75}
	}
	dists := []workload.SizeDist{
		workload.FixedSize(32 << 10),
		workload.WebMix(),
		workload.BoundedPareto(1.2, 4<<10, 1<<20),
	}

	results, err := sweepGrid("openloop", len(dists), len(factors), func(r, c int, name string) (openLoopPoint, error) {
		return runOpenLoopPoint(opt.Seed+uint64(r)*131+uint64(c), dists[r], factors[c], window, flowDeadline, opt, name)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for r, dist := range dists {
		table := NewTable(
			fmt.Sprintf("open-loop sweep, %s sizes over a %d Mbps bottleneck", dist.Name(), openLoopCapacityMbps),
			"load factor", "offered Mbps", "goodput Mbps", "done", "dropped", "open", "p50 ms", "p99 ms")
		goodput := make([]float64, len(factors))
		p99 := make([]float64, len(factors))
		for c, f := range factors {
			pt := results[r][c]
			goodput[c] = pt.goodput
			p99[c] = pt.p99
			table.AddRow(fmt.Sprintf("%.2f", f), fmt.Sprintf("%.2f", pt.offeredMbps),
				fmt.Sprintf("%.2f", pt.goodput), fmt.Sprintf("%d", pt.completed),
				fmt.Sprintf("%d", pt.dropped), fmt.Sprintf("%d", pt.unfinished),
				fmt.Sprintf("%.2f", pt.p50), fmt.Sprintf("%.2f", pt.p99))
		}
		table.AddNote("open-loop Poisson arrivals; goodput saturates at the %d Mbps knee while the latency tail keeps rising", openLoopCapacityMbps)
		res.AddTable(table)
		res.AddSeries(Series{Name: "goodput " + dist.Name(), Unit: "Mbps", XLabel: "load factor", X: factors, Y: goodput})
		res.AddSeries(Series{Name: "p99 " + dist.Name(), Unit: "ms", XLabel: "load factor", X: factors, Y: p99})
	}
	return res, nil
}

// runOpenLoopPoint runs one self-contained open-loop simulation: a two-host
// topology with one bottleneck path, a server, and a Poisson open-loop pool
// offering factor × capacity. obs's observers are attached, their files
// named name.
func runOpenLoopPoint(seed uint64, dist workload.SizeDist, factor float64, window, flowDeadline time.Duration, obs Options, name string) (openLoopPoint, error) {
	rate := factor * openLoopCapacityMbps * 1e6 / (dist.Mean() * 8)

	w, err := NewWorld(seed, netem.TwoHostSpec(netem.Symmetric("bottleneck",
		netem.Mbps(openLoopCapacityMbps), 10*time.Millisecond,
		int(float64(netem.Mbps(openLoopCapacityMbps))/8*0.100), 0)), obs.PcapDir, obs.Trace, name, 0, 1)
	if err != nil {
		return openLoopPoint{}, err
	}
	defer w.Close()
	w.Managers["client"].SetProbe(w.Probe, 0)
	s, net := w.Sim, w.Net

	srvCfg := core.DefaultConfig()
	srvCfg.AdvertiseAddresses = false
	if _, err := httpsim.StartServer(w.Managers["server"], httpsim.ServerConfig{Port: 80, Conn: srvCfg}); err != nil {
		return openLoopPoint{}, err
	}

	cliCfg := core.DefaultConfig()
	cliCfg.AdvertiseAddresses = false
	cliCfg.SendBufBytes = 128 << 10
	cliCfg.RecvBufBytes = 128 << 10
	pool, err := httpsim.NewOpenLoopPool(w.Managers["client"], httpsim.OpenLoopConfig{
		Arrival:      workload.Poisson(rate),
		Sizes:        dist,
		Rng:          sim.NewRNG(sim.DeriveSeed(seed, 1)),
		Window:       window,
		FlowDeadline: flowDeadline,
		ServerAddr:   net.ServerAddr(0),
		ServerPort:   80,
		Conn:         cliCfg,
		Iface:        net.Client.Interfaces()[0],
	})
	if err != nil {
		return openLoopPoint{}, err
	}
	s.Schedule(0, pool.Start)
	w.Probe.StartSampler(pool.Done)
	deadline := window + flowDeadline + 5*time.Second
	for !pool.Done() && s.Now() < deadline && s.Step() {
	}
	r := pool.Result()
	samples := pool.LatencySamples()
	point := openLoopPoint{
		offeredMbps: r.OfferedMbps,
		goodput:     r.GoodputMbps,
		completed:   r.Completed,
		dropped:     r.Dropped,
		unfinished:  r.Unfinished,
		p50:         trace.Percentile(samples, 50),
		p99:         trace.Percentile(samples, 99),
	}
	if err := finishPoint(&w, seed, obs, name); err != nil {
		return openLoopPoint{}, err
	}
	return point, nil
}
