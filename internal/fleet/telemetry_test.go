package fleet

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/telemetry"
)

// TestTelemetryChangesNothing is the telemetry plane's core contract (the
// same one the flight recorder honours): attaching a full plane — profiler,
// fleet totals, latency samples — must leave every scenario's merged result
// byte-identical to a detached run. A shard adds its totals to the plane
// once, when it finishes, and nothing the plane holds is read back.
func TestTelemetryChangesNothing(t *testing.T) {
	cases := []struct {
		name string
		run  func(p *telemetry.Plane) (*experiments.Result, error)
	}{
		{"chaos", func(p *telemetry.Plane) (*experiments.Result, error) {
			spec := testChaosTraceSpec(2, 3)
			spec.Telemetry = p
			return RunChaos(spec)
		}},
		{"openloop", func(p *telemetry.Plane) (*experiments.Result, error) {
			spec := testOpenLoopSpec(2, 60)
			spec.Telemetry = p
			return RunOpenLoop(spec)
		}},
		{"corelink", func(p *telemetry.Plane) (*experiments.Result, error) {
			spec := testCorelinkSpec(2, 60, 30)
			spec.Telemetry = p
			return RunOpenLoop(spec)
		}},
		{"http", func(p *telemetry.Plane) (*experiments.Result, error) {
			spec := testHTTPSpec(2)
			spec.Telemetry = p
			return RunHTTP(spec)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			off, err := tc.run(nil)
			if err != nil {
				t.Fatalf("detached: %v", err)
			}
			plane := telemetry.New()
			on, err := tc.run(plane)
			if err != nil {
				t.Fatalf("instrumented: %v", err)
			}
			jOff, jOn := encodeJSON(t, off), encodeJSON(t, on)
			if !bytes.Equal(jOff, jOn) {
				t.Fatalf("telemetry perturbed the merged result:\n--- off ---\n%s\n--- on ---\n%s", jOff, jOn)
			}
			// The plane must actually have observed the run, not just stayed
			// out of the way: with no recorder attached a shard's events cell
			// is its Sim.Processed, so the plane's total is the all row's —
			// a shard's totals dropped or added twice breaks the equality.
			var page strings.Builder
			plane.WritePrometheus(&page)
			if got, want := promValue(t, page.String(), "fleet_events_total"), eventsCell(t, on); got != want {
				t.Fatalf("plane counted %s events, the all row %s", got, want)
			}
			if promValue(t, page.String(), "fleet_segments_total") == "0" {
				t.Fatalf("plane counted no segments:\n%s", page.String())
			}
			phases := map[string]bool{}
			for _, ph := range plane.Prof.Snapshot() {
				phases[ph.Path] = true
			}
			for _, want := range []string{"build-graph", "shard-step", "merge"} {
				if tc.name == "corelink" && want == "shard-step" {
					// Coupled shards are stepped by the epoch loop, not
					// StepUntil; the barrier span covers them instead.
					want = "epoch-barrier"
				}
				if !phases[want] {
					t.Fatalf("profiler missing %q span; recorded %v", want, phases)
				}
			}
			if tc.name == "corelink" && !phases["allocate"] {
				t.Fatalf("coupled run recorded no allocate span; recorded %v", phases)
			}
		})
	}
}

// latencyQuantileBits runs the open-loop workload with an attached plane and
// returns the exact bit patterns of the published latency percentiles.
func latencyQuantileBits(t *testing.T, workers, shards int) [3]uint64 {
	t.Helper()
	spec := testOpenLoopSpec(workers, 60)
	spec.Shards = shards
	plane := telemetry.New()
	spec.Telemetry = plane
	if _, err := RunOpenLoop(spec); err != nil {
		t.Fatal(err)
	}
	if len(plane.Latency()) == 0 {
		t.Fatal("run published no latency samples")
	}
	return [3]uint64{
		math.Float64bits(plane.LatencyQuantile(50)),
		math.Float64bits(plane.LatencyQuantile(95)),
		math.Float64bits(plane.LatencyQuantile(99)),
	}
}

// TestTelemetryQuantilesWorkerInvariant pins the telemetry end of the fleet
// latency pipeline: the published samples are the merged slice, appended in
// member order within a shard and shard-index order across the fleet, so the
// reported percentiles are bit-identical at any worker count and any
// GOMAXPROCS.
func TestTelemetryQuantilesWorkerInvariant(t *testing.T) {
	base := latencyQuantileBits(t, 1, 3)
	if got := latencyQuantileBits(t, 4, 3); got != base {
		t.Fatalf("worker count changed latency quantiles: w1=%v w4=%v", base, got)
	}
	prev := runtime.GOMAXPROCS(4)
	got := latencyQuantileBits(t, 4, 3)
	runtime.GOMAXPROCS(prev)
	if got != base {
		t.Fatalf("GOMAXPROCS changed latency quantiles: base=%v gomaxprocs4=%v", base, got)
	}
}

// allRow finds the aggregate "all" row of the table whose columns include the
// latency percentiles, and returns cell lookup by column name.
func allRow(t *testing.T, res *experiments.Result) map[string]string {
	t.Helper()
	for _, table := range res.Tables {
		cols := table.Columns
		hasP99 := false
		for _, c := range cols {
			if c == "p99 ms" {
				hasP99 = true
			}
		}
		if !hasP99 {
			continue
		}
		for _, row := range table.Rows {
			if len(row) > 0 && row[0] == "all" {
				m := map[string]string{}
				for i, c := range cols {
					if i < len(row) {
						m[c] = row[i]
					}
				}
				return m
			}
		}
	}
	t.Fatal("no aggregate row with latency percentiles found")
	return nil
}

// TestTelemetryReportsTheTablesLatency is the one-number rule: the plane, and
// through it its Prometheus snapshot, publish the very percentiles the result
// table prints and count the very flows it counts as done. A second statistic beside the
// table's (a bucketed estimate, a per-shard average) fails it.
func TestTelemetryReportsTheTablesLatency(t *testing.T) {
	spec := testOpenLoopSpec(2, 60)
	plane := telemetry.New()
	spec.Telemetry = plane
	res, err := RunOpenLoop(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := allRow(t, res)
	if got := strconv.Itoa(len(plane.Latency())); got != all["done"] {
		t.Fatalf("plane holds %s latency samples, table says done = %s", got, all["done"])
	}
	for col, pct := range map[string]float64{"p50 ms": 50, "p99 ms": 99} {
		if got := fmt.Sprintf("%.2f", plane.LatencyQuantile(pct)); got != all[col] {
			t.Errorf("plane p%g = %s ms, table %q = %s", pct, got, col, all[col])
		}
	}
	var page strings.Builder
	plane.WritePrometheus(&page)
	val := promValue(t, page.String(), `fleet_latency_ms{quantile="0.99"}`)
	p99, err := strconv.ParseFloat(val, 64)
	if err != nil {
		t.Fatalf("unparseable p99 %q: %v", val, err)
	}
	if got := fmt.Sprintf("%.2f", p99); got != all["p99 ms"] {
		t.Errorf("exposition p99 = %s ms, table p99 = %s", got, all["p99 ms"])
	}
	if got := promValue(t, page.String(), "fleet_latency_samples_total"); got != all["done"] {
		t.Errorf("exposition counts %s latency samples, table says done = %s", got, all["done"])
	}
}

// promValue returns the value of the series (name and labels, as printed) on
// a Prometheus text page.
func promValue(t *testing.T, page, name string) string {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("exposition has no %s line:\n%s", name, page)
	return ""
}

// eventsCell returns the "events" cell of the result's aggregate "all" row.
func eventsCell(t *testing.T, res *experiments.Result) string {
	t.Helper()
	for _, table := range res.Tables {
		for i, col := range table.Columns {
			if col != "events" {
				continue
			}
			for _, row := range table.Rows {
				if row[0] == "all" {
					return row[i]
				}
			}
		}
	}
	t.Fatal("no all row with an events column")
	return ""
}
