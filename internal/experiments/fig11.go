package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/bonding"
	"mptcpgo/internal/core"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// Figure 11: apachebench-style HTTP benchmark — requests per second served
// as a function of the transfer size, for regular TCP over one gigabit link,
// TCP over two bonded gigabit links (Linux balance-rr) and MPTCP over both
// links. 100 closed-loop clients issue requests back to back.

func init() {
	Register(Experiment{
		ID:    "fig11",
		Title: "Fig. 11 — HTTP requests/second: TCP vs link bonding vs MPTCP",
		Run:   runFig11,
	})
}

// Fig11Sizes returns the transfer-size sweep in bytes.
func Fig11Sizes(quick bool) []int {
	if quick {
		return []int{10 << 10, 100 << 10, 300 << 10}
	}
	return []int{10 << 10, 30 << 10, 70 << 10, 100 << 10, 150 << 10, 200 << 10, 300 << 10}
}

func fig11Params(quick bool) (clients, requests int) {
	if quick {
		return 20, 200
	}
	return 100, 2000
}

// RunFig11Point runs one (mode, size) combination and returns the pool's
// result. Mode is one of "tcp", "bonding", "mptcp". obs's observers
// (PcapDir, Trace) are attached, their files named name; a bonding point has
// no netem.Path, so it writes no capture.
func RunFig11Point(seed uint64, mode string, size, clients, requests int, obs Options, name string) (httpsim.PoolResult, error) {
	connCfg := core.TCPOnlyConfig()
	spec := netem.TwoHostSpec(netem.DualGigabitSpec()[:1]...) // plain TCP over a single gigabit link
	switch mode {
	case "bonding":
		spec = netem.GraphSpec{Hosts: []string{"client", "server"}}
	case "mptcp":
		spec = netem.TwoHostSpec(netem.DualGigabitSpec()...)
		connCfg = core.DefaultConfig()
	}
	connCfg.SendBufBytes = 1 << 20
	connCfg.RecvBufBytes = 1 << 20

	w, err := NewWorld(seed, spec, obs.PcapDir, obs.Trace, name, 0, 1)
	if err != nil {
		return httpsim.PoolResult{}, err
	}
	defer w.Close()
	w.Managers["client"].SetProbe(w.Probe, 0)
	client, server := w.Net.Client, w.Net.Server
	if mode == "bonding" {
		// Linux balance-rr over two gigabit links, below TCP.
		gig := netem.LinkConfig{RateBps: netem.Gbps(1), Delay: 100 * time.Microsecond, QueueBytes: 512 << 10}
		bonding.Attach(w.Sim, "bond", client.AddInterface(packet.MakeAddr(10, 10, 0, 1)),
			server.AddInterface(packet.MakeAddr(10, 10, 0, 2)), gig, 2)
	}

	if _, err := httpsim.StartServer(w.Managers["server"], httpsim.ServerConfig{Port: 80, Conn: connCfg}); err != nil {
		return httpsim.PoolResult{}, err
	}
	pool, err := httpsim.NewClientPool(w.Managers["client"], httpsim.ClientPoolConfig{
		Clients:       clients,
		TotalRequests: requests,
		TransferSize:  size,
		ServerAddr:    server.Interfaces()[0].Addr(),
		ServerPort:    80,
		Conn:          connCfg,
		Iface:         client.Interfaces()[0],
	})
	if err != nil {
		return httpsim.PoolResult{}, err
	}
	w.Probe.StartSampler(pool.Done)
	pool.Start()
	if err := w.Sim.RunUntil(10 * time.Minute); err != nil {
		return httpsim.PoolResult{}, err
	}
	res := pool.Result()
	if err := finishPoint(&w, seed, obs, name); err != nil {
		return httpsim.PoolResult{}, err
	}
	return res, nil
}

func runFig11(opt Options) (*Result, error) {
	clients, requests := fig11Params(opt.Quick)
	sizes := Fig11Sizes(opt.Quick)

	table := NewTable(fmt.Sprintf("HTTP requests/second (%d closed-loop clients, %d requests per point)", clients, requests),
		"transfer size", "regular TCP", "bonding TCP", "MPTCP")
	modes := []string{"tcp", "bonding", "mptcp"}
	results, err := sweepGrid("fig11", len(sizes), len(modes), func(r, c int, name string) (httpsim.PoolResult, error) {
		return RunFig11Point(opt.Seed+uint64(sizes[r]), modes[c], sizes[r], clients, requests, opt, name)
	})
	if err != nil {
		return nil, err
	}
	for r, size := range sizes {
		row := []string{fmt.Sprintf("%dKB", size>>10)}
		for c := range modes {
			res := results[r][c]
			if res.Completed < requests {
				row = append(row, fmt.Sprintf("%.0f (only %d/%d done)", res.RequestsPerSec, res.Completed, requests))
			} else {
				row = append(row, fmt.Sprintf("%.0f", res.RequestsPerSec))
			}
		}
		table.AddRow(row...)
	}
	table.AddNote("paper: for files >100KB MPTCP doubles the requests served vs single-link TCP; below ~30KB the subflow-setup overhead makes MPTCP slower; bonding is strong for small files, MPTCP pulls ahead of bonding above ~150KB")
	res := &Result{Tables: []*Table{table}}
	sizeX := make([]float64, len(sizes))
	for i, size := range sizes {
		sizeX[i] = float64(size >> 10)
	}
	for c, mode := range modes {
		y := make([]float64, len(sizes))
		for r := range sizes {
			y[r] = results[r][c].RequestsPerSec
		}
		res.AddSeries(Series{Name: mode, Unit: "req/s", XLabel: "transfer KB", X: sizeX, Y: y})
	}
	return res, nil
}
