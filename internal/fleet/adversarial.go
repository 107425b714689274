package fleet

import (
	"fmt"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/middlebox"
)

// The adversarial experiment grid crosses every adversarial-middlebox preset
// with every fault-schedule preset and runs a small fleet-chaos cell at each
// point. The table it produces is the robustness counterpart of the mbox
// matrix: where mbox asks "does MPTCP traverse this box", this grid asks
// "does the §2 deployability requirement survive the box AND an unreliable
// network at the same time" — every cell must end with each member either
// completing intact over multipath or falling back to a working regular TCP
// connection, never stalling, corrupting or dying.
//
// Registered with the experiments registry (the fleet package already
// depends on experiments, so registration lives here to keep the dependency
// one-way); run it with `mptcpbench -run adversarial`.

func init() {
	experiments.Register(experiments.Experiment{
		ID:    "adversarial",
		Title: "Adversarial middlebox × fault-schedule grid (§2, §3 robustness)",
		Run:   runAdversarial,
	})
}

// advExpectation states, per adversary preset, what a passing cell looks
// like; it is printed alongside the measured outcome like mbox's expected
// column.
func advExpectation(adv string) string {
	switch adv {
	case "", "none":
		return "multipath completes"
	case "strip-syn", "dpi":
		return "clean fallback at the handshake"
	case "dpi-mid":
		return "survives on the primary path"
	case "rst":
		return "joins killed; survives on the initial subflow"
	case "police":
		return "throttled secondary; completes"
	}
	return ""
}

func runAdversarial(opt experiments.Options) (*experiments.Result, error) {
	members := 2
	transfer := 192 << 10
	if opt.Quick {
		transfer = 64 << 10
	}

	type cell struct{ adv, fault string }
	var cells []cell
	for _, adv := range middlebox.AdversaryPresetNames() {
		for _, fault := range faults.PresetNames() {
			cells = append(cells, cell{adv, fault})
		}
	}

	outs, err := experiments.SweepWorkers(len(cells), 0, func(i int) (chaosMerge, error) {
		c := cells[i]
		_, merge, err := runChaos(ChaosSpec{
			Common: Common{
				Seed:      opt.Seed + uint64(i)*101,
				Quick:     opt.Quick,
				Label:     fmt.Sprintf("adversarial[%02d]: adversary=%s faults=%s", i, c.adv, c.fault),
				Observers: Observers{PcapDir: opt.PcapDir, Trace: opt.Trace},
			},
			Members:       members,
			TransferBytes: transfer,
			Faults:        faults.MustParse(c.fault),
			Adversary:     c.adv,
			CaptureName:   fmt.Sprintf("adversarial-%02d", i),
		})
		if err != nil {
			return merge, fmt.Errorf("adversarial case %d (adversary=%s faults=%s): %w", i, c.adv, c.fault, err)
		}
		return merge, nil
	})
	if err != nil {
		return nil, err
	}

	table := experiments.NewTable(
		fmt.Sprintf("adversary × fault grid, %d members per cell, %d KiB uploads", members, transfer>>10),
		"case", "adversary", "faults", "ok", "fallback", "stalled", "failed", "intact", "reasons", "verdict", "expected")
	violations := 0
	for i, c := range cells {
		m := outs[i]
		verdict := "pass"
		if m.stalled > 0 || m.failed > 0 || m.intact != m.members || m.encodeErrors > 0 {
			verdict = "VIOLATION"
			violations++
		}
		table.AddRow(fmt.Sprintf("%02d", i), c.adv, c.fault,
			fmt.Sprintf("%d", m.ok), fmt.Sprintf("%d", m.fallback),
			fmt.Sprintf("%d", m.stalled), fmt.Sprintf("%d", m.failed),
			fmt.Sprintf("%d/%d", m.intact, m.members),
			m.reasonSummary(), verdict, advExpectation(c.adv))
	}
	table.AddNote("invariant: every cell must show stalled=0, failed=0 and intact=members — each member completes its verified upload over multipath or falls back to working regular TCP")
	table.AddNote("cells: %d (%d adversary presets × %d fault presets); violations: %d",
		len(cells), len(middlebox.AdversaryPresetNames()), len(faults.PresetNames()), violations)

	res := &experiments.Result{}
	res.AddTable(table)
	if violations > 0 {
		return res, fmt.Errorf("adversarial: %d of %d grid cells violated the robustness invariant", violations, len(cells))
	}
	return res, nil
}
