package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/fleet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/telemetry"
	"mptcpgo/internal/workload"
)

// telemetryOverheadBudget is the wall-clock cost ceiling for an attached
// telemetry plane, asserted by the trace-overhead scenario (and thus by CI).
const telemetryOverheadBudget = 0.03

// telemetryOverheadFloor guards the assertion against meaningless ratios:
// below this baseline wall-clock the workload is too small for a stable
// percentage and the check is reported but not enforced.
const telemetryOverheadFloor = 200 * time.Millisecond

// runTraceOverheadScenario runs the same open-loop workload three ways —
// plain, flight recorder on, telemetry plane attached — and reports the
// deterministic cost profile: scenario counters (which must be byte-identical
// across all three), the event/sample volume the recorder retained, and the
// wall-clock ratios (stderr only, so the encoded result stays byte-comparable
// across machines). The telemetry overhead is measured as the min over three
// paired runs — noise only ever inflates wall-clock, so the minimum ratio is
// the robust estimate — and enforced against telemetryOverheadBudget when the
// baseline clears the floor. CI commits its quick JSON as
// bench/BENCH_trace.json under the freshness gate.
func runTraceOverheadScenario(o scenarioOptions) (*experiments.Result, error) {
	hosts, rate, window := o.members, o.rate, o.window
	// The three variants attach their own observers; none of the run's.
	base := fleet.DefaultOpenLoopSpec(o.Seed, hosts, rate, window)
	base.Sizes = workload.FixedSize(16 << 10)
	base.Shards, base.Workers, base.Quick = o.Shards, o.Workers, o.Quick

	// Three paired (plain, telemetry-attached) runs: the first pair's plain
	// result doubles as the identity baseline, and the minimum on/off ratio
	// across pairs is the telemetry overhead estimate.
	const pairs = 3
	var off, telem *experiments.Result
	var wallOff time.Duration
	minRatio := 0.0
	minBase := time.Duration(0)
	for i := 0; i < pairs; i++ {
		startOff := time.Now()
		offRun, err := fleet.RunOpenLoop(base)
		if err != nil {
			return nil, err
		}
		dOff := time.Since(startOff)

		instrumented := base
		instrumented.Telemetry = telemetry.New("trace-overhead")
		startOn := time.Now()
		telemRun, err := fleet.RunOpenLoop(instrumented)
		if err != nil {
			return nil, err
		}
		dOn := time.Since(startOn)

		if i == 0 {
			off, telem, wallOff = offRun, telemRun, dOff
		}
		r := float64(dOn) / float64(dOff)
		if i == 0 || r < minRatio {
			minRatio = r
		}
		if i == 0 || dOff < minBase {
			minBase = dOff
		}
	}

	// The traced run needs a directory; an ephemeral one keeps the scenario
	// self-contained unless the caller asked for the files via -trace-dir.
	dir := o.Trace.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "trace-overhead")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	interval := o.Trace.ProbeInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	traced := base
	traced.Trace = experiments.TraceSpec{Dir: dir, ProbeInterval: interval}
	startOn := time.Now()
	on, err := fleet.RunOpenLoop(traced)
	if err != nil {
		return nil, err
	}
	wallOn := time.Since(startOn)

	offJSON, _ := json.Marshal(off)
	onJSON, _ := json.Marshal(on)
	telemJSON, _ := json.Marshal(telem)
	identical := bytes.Equal(offJSON, onJSON)
	telemIdentical := bytes.Equal(offJSON, telemJSON)

	events, err := probe.ParseJSONL(mustRead(filepath.Join(dir, "fleet-openloop-events.jsonl")))
	if err != nil {
		return nil, fmt.Errorf("trace-overhead: %w", err)
	}
	kinds := probe.CountKinds(events)
	var flowDone uint64
	if int(probe.KindFlowDone) < len(kinds) {
		flowDone = kinds[probe.KindFlowDone]
	}

	allRow := off.Tables[0].Rows[len(off.Tables[0].Rows)-1]
	res := &experiments.Result{
		ID:    "trace-overhead",
		Title: fmt.Sprintf("flight-recorder overhead: %d hosts, %.0f flows/s, %v window, %v sampling", hosts, rate, window, interval),
		Seed:  o.Seed, Quick: o.Quick,
	}
	table := experiments.NewTable("traced/instrumented vs plain open-loop run (scenario output must not change)",
		"metric", "value")
	table.AddRow("results identical", fmt.Sprintf("%v", identical))
	table.AddRow("telemetry identical", fmt.Sprintf("%v", telemIdentical))
	table.AddRow("offered flows", allRow[2])
	table.AddRow("completed flows", allRow[3])
	table.AddRow("trace events", fmt.Sprintf("%d", len(events)))
	table.AddRow("flow_done events", fmt.Sprintf("%d", flowDone))
	table.AddNote("observers must be invisible: the traced and telemetry-attached runs' merged results are byte-compared against the plain run's")
	if !identical {
		table.AddNote("TRACE PERTURBATION: the traced run produced a different merged result")
	}
	if !telemIdentical {
		table.AddNote("TELEMETRY PERTURBATION: the instrumented run produced a different merged result")
	}
	res.AddTable(table)
	overhead := minRatio - 1
	fmt.Fprintf(os.Stderr, "trace-overhead: plain %v, traced %v wall-clock; telemetry overhead %+.1f%% (min of %d pairs, budget %.0f%%)\n",
		wallOff.Round(time.Millisecond), wallOn.Round(time.Millisecond),
		overhead*100, pairs, telemetryOverheadBudget*100)
	if minBase >= telemetryOverheadFloor && overhead > telemetryOverheadBudget {
		return nil, fmt.Errorf("trace-overhead: telemetry overhead %.1f%% exceeds the %.0f%% budget (baseline %v)",
			overhead*100, telemetryOverheadBudget*100, minBase.Round(time.Millisecond))
	}
	return res, nil
}

func mustRead(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return b
}
