package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files under testdata/")

func testTraceSpec(dir string) experiments.TraceSpec {
	return experiments.TraceSpec{Dir: dir, ProbeInterval: 50 * time.Millisecond}
}

// testChaosTraceSpec is the chaos workload the trace tests share: time-driven
// faults (flap500) only, so member behaviour derives from (seed, member
// index) alone and the recorded streams are comparable across shard layouts.
func testChaosTraceSpec(workers, shards int) ChaosSpec {
	return ChaosSpec{
		Common:        Common{Seed: 23, Shards: shards, Workers: workers, Quick: true},
		Members:       6,
		TransferBytes: 64 << 10,
		Faults:        faults.MustParse("flap500"),
	}
}

func readTraceFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("trace output missing: %v", err)
	}
	if len(data) == 0 {
		t.Fatalf("trace output %s is empty", name)
	}
	return data
}

// TestTraceChangesNothing is the flight recorder's core contract: attaching
// it — events, counters and the time-series sampler — must leave every
// scenario's merged result byte-identical to an untraced run. The sampler's
// own timer firings are subtracted from the reported event totals and all
// probe reads are passive, so the JSON the CLI ships cannot tell whether the
// recorder was on.
func TestTraceChangesNothing(t *testing.T) {
	cases := []struct {
		name     string
		openLoop bool // the result tallies flows that emit flow_done
		run      func(tr experiments.TraceSpec) (*experiments.Result, error)
	}{
		{"chaos", false, func(tr experiments.TraceSpec) (*experiments.Result, error) {
			spec := testChaosTraceSpec(2, 3)
			spec.Trace = tr
			return RunChaos(spec)
		}},
		{"openloop", true, func(tr experiments.TraceSpec) (*experiments.Result, error) {
			spec := testOpenLoopSpec(2, 60)
			spec.Trace = tr
			return RunOpenLoop(spec)
		}},
		{"corelink", true, func(tr experiments.TraceSpec) (*experiments.Result, error) {
			spec := testCorelinkSpec(2, 60, 30)
			spec.Trace = tr
			return RunOpenLoop(spec)
		}},
		{"http", false, func(tr experiments.TraceSpec) (*experiments.Result, error) {
			spec := testHTTPSpec(2)
			spec.Trace = tr
			return RunHTTP(spec)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			off, err := tc.run(experiments.TraceSpec{})
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			dir := t.TempDir()
			on, err := tc.run(testTraceSpec(dir))
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			jOff, jOn := encodeJSON(t, off), encodeJSON(t, on)
			if !bytes.Equal(jOff, jOn) {
				t.Fatalf("tracing perturbed the merged result:\n--- off ---\n%s\n--- on ---\n%s", jOff, jOn)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*-events.jsonl"))
			if err != nil || len(files) != 1 {
				t.Fatalf("expected one events file, got %v (%v)", files, err)
			}
			events, err := probe.ParseJSONL(readTraceFile(t, dir, filepath.Base(files[0])))
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("traced run recorded no events")
			}
			if tc.openLoop {
				checkFlowDone(t, on, events)
			}
		})
	}
}

// checkFlowDone splits a traced open-loop run's flow_done events by outcome
// (A = 1 completed, 2 deadline-dropped, 0 failed): every settled flow emits
// exactly one, so the three counts are the result's all-row done, dropped
// and failed, and with the flows still open they account for every offered
// flow.
func checkFlowDone(t *testing.T, res *experiments.Result, events []probe.Event) {
	t.Helper()
	var failed, done, dropped int
	for _, e := range events {
		if e.Kind != probe.KindFlowDone {
			continue
		}
		switch e.A {
		case 0:
			failed++
		case 1:
			done++
		case 2:
			dropped++
		default:
			t.Fatalf("flow_done with outcome %d", e.A)
		}
	}
	table := res.Tables[0]
	all := table.Rows[len(table.Rows)-1]
	cell := func(col string) int {
		for i, c := range table.Columns {
			if c == col {
				n, err := strconv.Atoi(all[i])
				if err != nil {
					t.Fatalf("all row %s = %q: %v", col, all[i], err)
				}
				return n
			}
		}
		t.Fatalf("no %q column in %v", col, table.Columns)
		return 0
	}
	if done != cell("done") || dropped != cell("dropped") || failed != cell("failed") {
		t.Errorf("flow_done outcomes %d done / %d dropped / %d failed; all row %v", done, dropped, failed, all)
	}
	if sum := done + dropped + failed + cell("open"); sum != cell("offered") {
		t.Errorf("flow_done outcomes plus open flows = %d, offered %d", sum, cell("offered"))
	}
	t.Logf("flow_done: %d done, %d dropped, %d failed of %d offered", done, dropped, failed, cell("offered"))
}

// TestTraceWorkerInvariance extends the worker-count contract to the trace
// files themselves: both the JSONL event stream and the trace.json summary
// must be byte-identical whether shards run sequentially under GOMAXPROCS=1
// or in parallel under GOMAXPROCS=4. Corelink additionally covers the
// epoch-allocation events recorded from the allocator goroutine.
func TestTraceWorkerInvariance(t *testing.T) {
	runs := []struct {
		name string
		base string // trace file basename prefix
		run  func(workers int, dir string) error
	}{
		{"chaos", "fleet-chaos", func(workers int, dir string) error {
			spec := testChaosTraceSpec(workers, 3)
			spec.Trace = testTraceSpec(dir)
			_, err := RunChaos(spec)
			return err
		}},
		{"corelink", "fleet-corelink", func(workers int, dir string) error {
			spec := testCorelinkSpec(workers, 60, 30)
			spec.Trace = testTraceSpec(dir)
			_, err := RunOpenLoop(spec)
			return err
		}},
	}
	for _, rc := range runs {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			dir1, dir4 := t.TempDir(), t.TempDir()
			prev := runtime.GOMAXPROCS(1)
			err1 := rc.run(1, dir1)
			runtime.GOMAXPROCS(4)
			err4 := rc.run(4, dir4)
			runtime.GOMAXPROCS(prev)
			if err1 != nil {
				t.Fatalf("workers=1: %v", err1)
			}
			if err4 != nil {
				t.Fatalf("workers=4: %v", err4)
			}
			for _, name := range []string{rc.base + "-events.jsonl", rc.base + "-trace.json"} {
				b1 := readTraceFile(t, dir1, name)
				b4 := readTraceFile(t, dir4, name)
				if !bytes.Equal(b1, b4) {
					t.Errorf("%s differs between 1 and 4 workers", name)
				}
			}
		})
	}
}

// TestTraceShardCountInvariance re-partitions the same chaos members across
// 1, 2 and 4 shards and asserts the trace files do not move: events record
// only relative protocol quantities (never wire sequence numbers or keys,
// which come from the shard-shared RNG), and the flap500 fault schedule is
// time-driven, so a member's recorded stream is a function of (seed, member
// index) alone.
func TestTraceShardCountInvariance(t *testing.T) {
	var events, summary []byte
	for _, shards := range []int{1, 2, 4} {
		dir := t.TempDir()
		spec := testChaosTraceSpec(2, shards)
		spec.Trace = testTraceSpec(dir)
		if _, err := RunChaos(spec); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		ev := readTraceFile(t, dir, "fleet-chaos-events.jsonl")
		sm := readTraceFile(t, dir, "fleet-chaos-trace.json")
		if events == nil {
			events, summary = ev, sm
			continue
		}
		if !bytes.Equal(ev, events) {
			t.Errorf("shards=%d: events.jsonl differs from shards=1", shards)
		}
		if !bytes.Equal(sm, summary) {
			t.Errorf("shards=%d: trace.json differs from shards=1", shards)
		}
	}
}

// TestTraceGolden pins the head of the chaos event stream against a golden
// snippet: the JSONL wire format, kind names, payload conventions and event
// ordering are all load-bearing for external consumers (tracereport, CI).
// Regenerate with `go test ./internal/fleet/ -run TestTraceGolden -update`.
func TestTraceGolden(t *testing.T) {
	const goldenLines = 60
	dir := t.TempDir()
	spec := ChaosSpec{
		Common:        Common{Seed: 7, Quick: true, Observers: Observers{Trace: testTraceSpec(dir)}},
		Members:       2,
		TransferBytes: 48 << 10,
		Faults:        faults.MustParse("flap500"),
	}
	if _, err := RunChaos(spec); err != nil {
		t.Fatal(err)
	}
	full := readTraceFile(t, dir, "fleet-chaos-events.jsonl")
	lines := bytes.SplitAfter(full, []byte{'\n'})
	if len(lines) > goldenLines {
		lines = lines[:goldenLines]
	}
	got := bytes.Join(lines, nil)

	goldenPath := filepath.Join("testdata", "chaos-events.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", goldenPath, len(lines))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden trace snippet drifted (run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTraceDrainTailQuantified instruments the ROADMAP's RTO drain-tail
// observation: under a bursty-loss schedule the last useful delivery is
// followed by a run of exponentially backed-off retransmission timeouts, and
// the flight recorder must both capture the RTO events and let DrainTail
// quantify how long completion trailed because of them.
func TestTraceDrainTailQuantified(t *testing.T) {
	dir := t.TempDir()
	spec := ChaosSpec{
		Common:        Common{Seed: 31, Quick: true, Observers: Observers{Trace: testTraceSpec(dir)}},
		Members:       4,
		TransferBytes: 64 << 10,
		// Deep loss: 50% on both paths kills enough retransmissions that
		// recovery has to fall through fast retransmit into RTO backoff.
		Faults: faults.MustParse("loss:path=all,rate=0.5,at=200ms,dur=3s"),
	}
	if _, err := RunChaos(spec); err != nil {
		t.Fatal(err)
	}
	events, err := probe.ParseJSONL(readTraceFile(t, dir, "fleet-chaos-events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := probe.CountKinds(events)
	if kinds[probe.KindRTO] == 0 {
		t.Fatal("loss schedule produced no RTO events in the trace")
	}
	tail := probe.DrainTail(events)
	if tail <= 0 {
		t.Fatalf("RTO events recorded but drain tail is %v", tail)
	}
	tails := probe.DrainTails(events)
	if len(tails) == 0 {
		t.Fatal("DrainTails returned no runs despite RTO events")
	}
	var worst probe.TailRun
	for _, r := range tails {
		if r.Tail() > worst.Tail() {
			worst = r
		}
	}
	if worst.LastRTO <= 0 || worst.Count <= 0 {
		t.Fatalf("worst tail run is malformed: %+v", worst)
	}
	t.Logf("drain tail %v across %d subflows with RTOs (worst: member=%d %d consecutive RTOs, final backoff %v)",
		tail, len(tails), worst.Member, worst.Count, worst.LastRTO)
	if tail < 100*time.Millisecond {
		t.Errorf("drain tail %v implausibly small for a bursty-loss run (expect at least one full min-RTO)", tail)
	}
}

// TestTraceOpenLoopRecycledSubflowsSampledOnce pins the traced fleet-openloop
// -quick run (`mptcpbench -scenario fleet-openloop -quick -shards 4
// -trace-dir DIR -probe-interval 100ms`) by the SHA-256 of its two trace
// files, taken before the httpsim pools released their connections. Each
// watched subflow takes one last sample on the first tick after its endpoint
// closes; were its structs recycled before that tick, the sample would read
// another flow's window, or the sampler would keep watching that flow, and
// the digests would move. The run is byte-identical with and without
// recycling.
func TestTraceOpenLoopRecycledSubflowsSampledOnce(t *testing.T) {
	arrival, err := workload.ParseArrival("poisson", 60)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := workload.ParseSizeDist("webmix")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := OpenLoopSpec{
		Common: Common{Seed: 42, Shards: 4, Workers: 2, Quick: true,
			Observers: Observers{Trace: experiments.TraceSpec{Dir: dir, ProbeInterval: 100 * time.Millisecond}}},
		Hosts: 32, Arrival: arrival, Sizes: sizes, Window: 2 * time.Second,
	}
	if _, err := RunOpenLoop(spec); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ name, sha256 string }{
		{"fleet-openloop-events.jsonl", "e33c115dddbe263039dad016156b95a57e7aca614e0e8cb36500520fcde77b27"},
		{"fleet-openloop-trace.json", "06a06d47d47791eb5b7898d4299916a8b276943992bbe13f8d3990b42bc04e78"},
	} {
		sum := sha256.Sum256(readTraceFile(t, dir, f.name))
		if got := hex.EncodeToString(sum[:]); got != f.sha256 {
			t.Errorf("%s has SHA-256 %s, want %s", f.name, got, f.sha256)
		}
	}
}
