package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/bonding"
	"mptcpgo/internal/core"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
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

// RunFig11Point runs one (mode, size) combination and returns requests/sec.
// Mode is one of "tcp", "bonding", "mptcp".
func RunFig11Point(seed uint64, mode string, size, clients, requests int) (httpsim.PoolResult, error) {
	return RunFig11PointTraced(seed, mode, size, clients, requests, TraceSpec{})
}

// RunFig11PointTraced is RunFig11Point with an optional flight recorder:
// when the spec is enabled, httpbench-trace.json and httpbench-events.jsonl
// are written to its directory. Capture never changes the returned result.
func RunFig11PointTraced(seed uint64, mode string, size, clients, requests int, tspec TraceSpec) (httpsim.PoolResult, error) {
	s := sim.New(seed)
	defer sim.Local[pool.Local](s).Flush()
	gig := netem.LinkConfig{RateBps: netem.Gbps(1), Delay: 100 * time.Microsecond, QueueBytes: 512 << 10}

	var clientHost, serverHost *netem.Host
	var clientIface *netem.Interface

	connCfg := core.TCPOnlyConfig()
	connCfg.SendBufBytes = 1 << 20
	connCfg.RecvBufBytes = 1 << 20

	switch mode {
	case "bonding":
		c, srv, _ := bonding.BuildBondedHostPair(s, gig, 2)
		clientHost, serverHost = c, srv
		clientIface = c.Interfaces()[0]
	case "mptcp":
		n := netem.Build(s, netem.DualGigabitSpec()...)
		clientHost, serverHost = n.Client, n.Server
		clientIface = n.Client.Interfaces()[0]
		connCfg = core.DefaultConfig()
		connCfg.SendBufBytes = 1 << 20
		connCfg.RecvBufBytes = 1 << 20
	default: // plain TCP over a single gigabit link
		n := netem.Build(s, netem.DualGigabitSpec()[:1]...)
		clientHost, serverHost = n.Client, n.Server
		clientIface = n.Client.Interfaces()[0]
	}

	cliMgr := core.NewManager(clientHost)
	srvMgr := core.NewManager(serverHost)

	_, err := httpsim.StartServer(srvMgr, httpsim.ServerConfig{Port: 80, Conn: connCfg})
	if err != nil {
		return httpsim.PoolResult{}, err
	}

	var rec *probe.Recorder
	if tspec.Enabled() {
		rec = probe.NewRecorder(s, 0, 1, tspec.ProbeConfig())
		cliMgr.SetProbe(rec, 0)
	}

	serverIfaceAddr := serverHost.Interfaces()[0].Addr()
	pool, err := httpsim.NewClientPool(cliMgr, httpsim.ClientPoolConfig{
		Clients:       clients,
		TotalRequests: requests,
		TransferSize:  size,
		ServerAddr:    serverIfaceAddr,
		ServerPort:    80,
		Conn:          connCfg,
		Iface:         clientIface,
	})
	if err != nil {
		return httpsim.PoolResult{}, err
	}
	rec.StartSampler(pool.Done)
	pool.Start()
	if err := s.RunUntil(10 * time.Minute); err != nil {
		return httpsim.PoolResult{}, err
	}
	if tspec.Enabled() {
		recs := []*probe.Recorder{rec}
		tr := BuildTraceResult("httpbench-trace",
			fmt.Sprintf("httpbench mode=%s size=%d (flight recorder)", mode, size),
			seed, false, recs)
		if err := WriteTraceFiles(tspec, "httpbench", tr, MergedEvents(recs)); err != nil {
			return httpsim.PoolResult{}, err
		}
	}
	return pool.Result(), nil
}

func runFig11(opt Options) (*Result, error) {
	clients, requests := fig11Params(opt.Quick)
	sizes := Fig11Sizes(opt.Quick)

	table := NewTable(fmt.Sprintf("HTTP requests/second (%d closed-loop clients, %d requests per point)", clients, requests),
		"transfer size", "regular TCP", "bonding TCP", "MPTCP")
	modes := []string{"tcp", "bonding", "mptcp"}
	results, err := sweepGrid(len(sizes), len(modes), func(r, c int) (httpsim.PoolResult, error) {
		return RunFig11Point(opt.Seed+uint64(sizes[r]), modes[c], sizes[r], clients, requests)
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
