package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// mbox reproduces the design-validation results of §3 and §4.1: every
// middlebox behaviour the paper models (NAT, sequence-number rewriting,
// option stripping from SYNs or from all segments, segment splitting,
// segment coalescing, pro-active ACKing, payload modification) is placed on
// one or both paths of the WiFi+3G scenario and the table reports how the
// connection responded: full MPTCP, fallback to regular TCP, or subflow
// reset — and whether the data transfer completed correctly in every case
// (the paper's deployability requirement).

func init() {
	Register(Experiment{
		ID:    "mbox",
		Title: "Middlebox traversal matrix (§3, §4.1)",
		Run:   runMbox,
	})
}

type mboxCase struct {
	name     string
	boxes    func() []netem.Box
	both     bool   // install on both paths (otherwise only on path 0)
	expected string // expected outcome, for the table
}

func mboxCases() []mboxCase {
	return []mboxCase{
		{"none (baseline)", func() []netem.Box { return nil }, false, "MPTCP on both paths"},
		{"NAT", func() []netem.Box { return []netem.Box{middlebox.NewNAT(packet.MakeAddr(100, 64, 1, 1), true)} }, false, "MPTCP unaffected"},
		{"sequence rewriting", func() []netem.Box { return []netem.Box{middlebox.NewSeqRewriter(0)} }, false, "MPTCP unaffected (relative DSS offsets)"},
		{"strip options from SYNs (one path)", func() []netem.Box { return []netem.Box{middlebox.NewOptionStripper(true)} }, false, "falls back to regular TCP"},
		{"strip options from SYNs (both paths)", func() []netem.Box { return []netem.Box{middlebox.NewOptionStripper(true)} }, true, "falls back to regular TCP"},
		{"strip options from all segments", func() []netem.Box { return []netem.Box{middlebox.NewOptionStripper(false)} }, false, "negotiates, then falls back on first data"},
		{"segment splitting (TSO, 536B)", func() []netem.Box { return []netem.Box{middlebox.NewSplitter(536)} }, false, "MPTCP unaffected (duplicate mappings are harmless)"},
		{"segment coalescing", func() []netem.Box { return []netem.Box{middlebox.NewCoalescer(2, 8192)} }, false, "MPTCP works; lost mappings retransmitted"},
		{"pro-active ACKing proxy", func() []netem.Box { return []netem.Box{middlebox.NewProactiveACKer()} }, false, "MPTCP works (DATA_ACK is authoritative)"},
		{"payload-modifying ALG", func() []netem.Box { return []netem.Box{middlebox.NewPayloadCorrupter(400)} }, false, "checksum failure: subflow reset, transfer continues"},
		// Appended after the original matrix so the earlier rows keep their
		// per-case seeds (opt.Seed + i*101) and stay byte-identical.
		{"wire reserializer (codec round-trip)", func() []netem.Box { return []netem.Box{middlebox.NewReserializer()} }, false, "MPTCP unaffected (wire and in-memory forms agree)"},
	}
}

func runMbox(opt Options) (*Result, error) {
	duration := 8 * time.Second
	if opt.Quick {
		duration = 4 * time.Second
	}

	table := NewTable("MPTCP behaviour through middleboxes (WiFi+3G, 200KB buffers)",
		"middlebox", "transfer ok", "mptcp active", "fell back", "subflows", "csum failures", "expected")

	cases := mboxCases()
	results, err := SweepWorkers(len(cases), 0, func(i int) (BulkResult, error) {
		mc := cases[i]
		// Middlebox elements are stateful: each sweep point builds its own.
		boxes := map[int][]netem.Box{0: mc.boxes()}
		if mc.both {
			boxes[1] = mc.boxes()
		}
		cfg := core.DefaultConfig()
		cfg.SendBufBytes = 200 << 10
		cfg.RecvBufBytes = 200 << 10
		return runBulk(BulkOptions{
			Seed:     opt.Seed + uint64(i)*101,
			Specs:    netem.WiFi3GSpec(),
			Boxes:    boxes,
			Config:   cfg,
			Duration: duration,
			Warmup:   duration / 4,
		}, opt, pointName("mbox", i))
	})
	if err != nil {
		return nil, err
	}
	goodput := Series{Name: "goodput", Unit: "Mbps", XLabel: "case index"}
	for i, mc := range cases {
		res := results[i]
		ok := res.GoodputMbps > 0.5 // the transfer made real progress
		table.AddRow(mc.name,
			fmt.Sprintf("%v (%.1f Mbps)", ok, res.GoodputMbps),
			fmt.Sprintf("%v", res.MPTCPActive),
			fmt.Sprintf("%v", res.ClientStats.Fallbacks > 0 || !res.MPTCPActive),
			fmt.Sprintf("%d", res.Subflows),
			fmt.Sprintf("%d", res.ClientStats.ChecksumFailures+res.ServerStats.ChecksumFailures),
			mc.expected)
		goodput.X = append(goodput.X, float64(i))
		goodput.Y = append(goodput.Y, res.GoodputMbps)
	}
	table.AddNote("the deployability requirement (§2): data transfer must complete in every row, with or without multipath")
	return &Result{Tables: []*Table{table}, Series: []Series{goodput}}, nil
}
