package fleet

import (
	"fmt"
	"strconv"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/trace"
)

// MixedSpec describes the mixed-traffic scenario: a fleet of client/server
// pairs, each running one foreground MPTCP bulk flow over a WiFi+3G pair of
// links while plain-TCP background flows compete on the WiFi link — the
// "does MPTCP coexist with background TCP" question at fleet scale. Shards
// partition the pairs.
type MixedSpec struct {
	// Common.Deadline is not a separate knob here: a pair has no completion
	// condition, so every shard runs until the measurement window closes at
	// Duration.
	Common
	// Pairs is the total number of client/server pairs.
	Pairs int
	// Background is the number of plain-TCP background flows per pair
	// (default 2), all competing on the WiFi link.
	Background int
	// Duration is the simulated run length (default 5s); Warmup is excluded
	// from goodput measurement (default Duration/5).
	Duration, Warmup time.Duration
}

func (s MixedSpec) withDefaults() MixedSpec {
	if s.Background <= 0 {
		s.Background = 2
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.Warmup <= 0 || s.Warmup >= s.Duration {
		s.Warmup = s.Duration / 5
	}
	s.Deadline = s.Duration + time.Nanosecond // only has to lie past the window's end
	s.Common = s.Common.withDefaults(s.Deadline)
	return s
}

// mixedOut carries per-pair goodputs in pair order: one shard's, or the
// fleet's.
type mixedOut struct {
	pairs  int
	fgMbps []float64 // foreground MPTCP goodput per pair
	bgMbps []float64 // aggregate background TCP goodput per pair
	events uint64
}

func (m *mixedOut) merge(o mixedOut) {
	m.pairs += o.pairs
	m.fgMbps = append(m.fgMbps, o.fgMbps...)
	m.bgMbps = append(m.bgMbps, o.bgMbps...)
	m.events += o.events
}

func (m *mixedOut) fgMean() float64 { return trace.Mean(m.fgMbps) }
func (m *mixedOut) bgMean() float64 { return trace.Mean(m.bgMbps) }

func (m *mixedOut) row(label string) []string {
	fg, bg := m.fgMean(), m.bgMean()
	share := 0.0
	if fg+bg > 0 {
		share = 100 * fg / (fg + bg)
	}
	return []string{label, strconv.Itoa(m.pairs), fmt.Sprintf("%.2f", fg), fmt.Sprintf("%.2f", bg),
		fmt.Sprintf("%.1f", share), fmt.Sprint(m.events)}
}

// RunMixed executes the mixed-traffic scenario and returns the merged result.
func RunMixed(spec MixedSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	return Run[*mixedState, mixedOut](spec.Common, "mixed", "MPTCP foreground vs plain-TCP background traffic", spec.Pairs, mixedScenario{&spec},
		func(res *experiments.Result, outs []mixedOut) {
			table := experiments.NewTable(
				fmt.Sprintf("%d WiFi+3G pairs, %d background TCP flows each, across %d shards",
					spec.Pairs, spec.Background, len(outs)),
				"shard", "pairs", "fg Mbps (mean)", "bg Mbps (mean)", "fg share %", "events")
			addShardRows(table, outs)
			table.AddNote("fg = one MPTCP bulk flow over WiFi+3G; bg = aggregate of the plain-TCP flows sharing the WiFi link; the coupled controller should leave the background flows their fair share of WiFi while the foreground adds 3G capacity")
			res.AddTable(table)
			res.AddSeries(shardSeries("foreground goodput", "Mbps", outs, (*mixedOut).fgMean))
			res.AddSeries(shardSeries("background goodput", "Mbps", outs, (*mixedOut).bgMean))
		})
}

// mixedScenario builds the shard's client/server pairs — each pair its own
// WiFi+3G island inside the shard simulator — and measures per-pair goodput
// over the post-warmup window.
type mixedScenario struct{ spec *MixedSpec }

// mixedState is one shard's live byte counters: per pair, what the servers
// have read so far and what they had read at the end of warmup.
type mixedState struct {
	fgBytes, bgBytes []uint64
	fgBase, bgBase   []uint64
	// finished is set by the event that ends the measurement window.
	finished bool
}

func (s mixedScenario) Setup(sh *Shard) (*mixedState, error) {
	spec := s.spec
	g := netem.GraphSpec{}
	wifi := netem.WiFi3GSpec()[0].Config
	threeG := netem.WiFi3GSpec()[1].Config
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		cli, srv := fmt.Sprintf("cli%05d", gi), fmt.Sprintf("srv%05d", gi)
		g.AddLink(netem.LinkSpec{Name: fmt.Sprintf("wifi%d", gi), A: cli, B: srv, Config: wifi})
		g.AddLink(netem.LinkSpec{Name: fmt.Sprintf("3g%d", gi), A: cli, B: srv, Config: threeG})
	}
	if err := sh.Materialize(g); err != nil {
		return nil, err
	}
	n := sh.Members()
	st := &mixedState{fgBytes: make([]uint64, n), bgBytes: make([]uint64, n),
		fgBase: make([]uint64, n), bgBase: make([]uint64, n)}

	fgCfg := core.DefaultConfig()
	fgCfg.SendBufBytes = 256 << 10
	fgCfg.RecvBufBytes = 256 << 10
	bgCfg := core.TCPOnlyConfig()
	bgCfg.SendBufBytes = 128 << 10
	bgCfg.RecvBufBytes = 128 << 10

	payload := make([]byte, 16<<10)
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		rel := gi - sh.Lo
		cliMgr := sh.Manager(fmt.Sprintf("cli%05d", gi))
		srvMgr := sh.Manager(fmt.Sprintf("srv%05d", gi))
		wifiIface := cliMgr.Host().Interfaces()[0]
		remote := packet.Endpoint{Addr: wifiIface.Path().Peer(wifiIface).Addr(), Port: 80}

		counter := func(dst *uint64) core.AcceptCallback {
			return func(c *core.Connection) {
				c.OnReadable = func() {
					for {
						data := c.Read(64 << 10)
						if len(data) == 0 {
							break
						}
						*dst += uint64(len(data))
					}
				}
			}
		}
		if _, err := srvMgr.Listen(80, fgCfg, counter(&st.fgBytes[rel])); err != nil {
			return nil, err
		}
		if _, err := srvMgr.Listen(81, bgCfg, counter(&st.bgBytes[rel])); err != nil {
			return nil, err
		}

		dialBulk := func(cfg core.Config, port uint16) error {
			conn, err := cliMgr.Dial(wifiIface, packet.Endpoint{Addr: remote.Addr, Port: port}, cfg)
			if err != nil {
				return err
			}
			pump := func() {
				for conn.Write(payload) > 0 {
				}
			}
			conn.OnEstablished = pump
			conn.OnWritable = pump
			return nil
		}
		if err := dialBulk(fgCfg, 80); err != nil {
			return nil, fmt.Errorf("fleet: shard %d pair %d: %w", sh.Index, gi, err)
		}
		for b := 0; b < spec.Background; b++ {
			if err := dialBulk(bgCfg, 81); err != nil {
				return nil, fmt.Errorf("fleet: shard %d pair %d bg %d: %w", sh.Index, gi, b, err)
			}
		}
	}

	// Snapshot at warmup, measure until Duration.
	sh.Sim.Schedule(spec.Warmup, func() {
		copy(st.fgBase, st.fgBytes)
		copy(st.bgBase, st.bgBytes)
	})
	sh.Sim.Schedule(spec.Duration, func() { st.finished = true })
	return st, nil
}

func (mixedScenario) Done(st *mixedState) bool { return st.finished }

func (s mixedScenario) Collect(sh *Shard, st *mixedState) (mixedOut, error) {
	n := sh.Members()
	// The window-closing event is the harness's own, not the workload's.
	out := mixedOut{pairs: n, fgMbps: make([]float64, n), bgMbps: make([]float64, n), events: sh.probeEvents() - 1}
	window := (s.spec.Duration - s.spec.Warmup).Seconds()
	for i := 0; i < n; i++ {
		out.fgMbps[i] = float64(st.fgBytes[i]-st.fgBase[i]) * 8 / window / 1e6
		out.bgMbps[i] = float64(st.bgBytes[i]-st.bgBase[i]) * 8 / window / 1e6
	}
	return out, nil
}
