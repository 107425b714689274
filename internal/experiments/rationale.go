package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// rationale demonstrates the §3.3.1 design argument experimentally: if MPTCP
// inherited TCP's per-subflow receive-window semantics, a subflow that fails
// silently while holding the trailing edge of the window deadlocks the whole
// connection; with the shared (connection-level) window the retransmission on
// the surviving subflow always fits and the transfer completes.

func init() {
	Register(Experiment{
		ID:    "rationale",
		Title: "§3.3.1 — per-subflow vs shared receive window under silent subflow failure",
		Run:   runRationale,
	})
}

// runWindowScenario transfers data over WiFi+3G, fails the 3G path silently
// mid-transfer, and reports how much the application ultimately received and
// the client connection's counters. obs's observers are attached, their files
// named name.
func runWindowScenario(seed uint64, perSubflowWindow bool, total int, deadline time.Duration, obs Options, name string) (received int, client core.ConnStats, err error) {
	w, err := NewWorld(seed, netem.TwoHostSpec(netem.WiFi3GSpec()...), obs.PcapDir, obs.Trace, name, 0, 1)
	if err != nil {
		return 0, client, err
	}
	defer w.Close()
	w.Managers["client"].SetProbe(w.Probe, 0)
	s, net := w.Sim, w.Net

	cfg := core.RegularMPTCPConfig()
	cfg.PerSubflowReceiveWindow = perSubflowWindow
	cfg.SendBufBytes = 64 << 10
	cfg.RecvBufBytes = 64 << 10
	// Disable the rescue mechanisms: the point of the experiment is the
	// window semantics themselves.
	cfg.OpportunisticRetransmit = false
	cfg.PenalizeSlowSubflows = false

	_, err = w.Managers["server"].Listen(80, cfg, func(c *core.Connection) {
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
			}
		}
	})
	if err != nil {
		return 0, client, err
	}
	conn, err := w.Managers["client"].Dial(net.Client.Interfaces()[0], packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		return 0, client, err
	}
	payload := make([]byte, 16<<10)
	sent := 0
	pump := func() {
		for sent < total {
			w := conn.Write(payload[:min(len(payload), total-sent)])
			if w == 0 {
				return
			}
			sent += w
		}
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump

	// Fail the 3G path silently once both subflows carry data.
	s.Schedule(2*time.Second, func() { net.Path(1).SetDown(true) })
	w.Probe.StartSampler(func() bool { return received >= total })

	if err := s.RunUntil(deadline); err != nil {
		return received, conn.Stats(), err
	}
	return received, conn.Stats(), finishPoint(&w, seed, obs, name)
}

func runRationale(opt Options) (*Result, error) {
	total := 2 << 20
	deadline := 60 * time.Second
	if opt.Quick {
		total = 1 << 20
		deadline = 30 * time.Second
	}

	table := NewTable("Silent 3G failure at t=2s, 64KB buffers, no rescue mechanisms",
		"receive-window semantics", "bytes delivered", "transfer completed")
	semantics := []bool{true, false}
	results, err := SweepWorkers(len(semantics), 0, func(i int) (int, error) {
		received, _, err := runWindowScenario(opt.Seed+9, semantics[i], total, deadline, opt, pointName("rationale", i))
		return received, err
	})
	if err != nil {
		return nil, err
	}
	delivered := Series{Name: "bytes delivered", Unit: "bytes", XLabel: "0=per-subflow window, 1=shared window"}
	for i, perSubflow := range semantics {
		name := "shared connection-level window (MPTCP design)"
		if perSubflow {
			name = "per-subflow windows (naive TCP inheritance)"
		}
		table.AddRow(name, fmt.Sprintf("%d / %d", results[i], total), fmt.Sprintf("%v", results[i] >= total))
		delivered.X = append(delivered.X, float64(i))
		delivered.Y = append(delivered.Y, float64(results[i]))
	}
	table.AddNote("paper §3.3.1: with per-subflow windows the data lost on the failed subflow cannot be resent on the surviving one once its window slice has filled — the connection deadlocks; the shared window avoids this by construction")
	return &Result{Tables: []*Table{table}, Series: []Series{delivered}}, nil
}
