package fleet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/telemetry"
)

// TestTelemetryChangesNothing is the telemetry plane's core contract (the
// same one the flight recorder honours): attaching a full plane — registry,
// profiler, per-shard tracker cells, latency samples — must leave every
// scenario's merged result byte-identical to a detached run. All telemetry
// writes go to atomic side-channel cells and all reads are passive.
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
			plane := telemetry.New(tc.name)
			on, err := tc.run(plane)
			if err != nil {
				t.Fatalf("instrumented: %v", err)
			}
			jOff, jOn := encodeJSON(t, off), encodeJSON(t, on)
			if !bytes.Equal(jOff, jOn) {
				t.Fatalf("telemetry perturbed the merged result:\n--- off ---\n%s\n--- on ---\n%s", jOff, jOn)
			}
			// The plane must actually have observed the run, not just stayed
			// out of the way.
			snap := plane.Track.Snapshot()
			if snap.Shards == 0 || snap.ShardsDone != snap.Shards {
				t.Fatalf("tracker saw %d/%d shards done, want all attached and done", snap.ShardsDone, snap.Shards)
			}
			if snap.Events == 0 || snap.Segments == 0 {
				t.Fatalf("tracker recorded no activity: %+v", snap)
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
	plane := telemetry.New("quantiles")
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
// through it /metrics, publish the very percentiles the result table prints
// and count the very flows it counts as done. A second statistic beside the
// table's (a bucketed estimate, a per-shard average) fails it.
func TestTelemetryReportsTheTablesLatency(t *testing.T) {
	spec := testOpenLoopSpec(2, 60)
	plane := telemetry.New("one-number")
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
	const p99Line = `fleet_latency_ms{quantile="0.99"} `
	_, rest, ok := strings.Cut(page.String(), p99Line)
	if !ok {
		t.Fatalf("exposition has no %q line:\n%s", p99Line, page.String())
	}
	val, _, _ := strings.Cut(rest, "\n")
	p99, err := strconv.ParseFloat(val, 64)
	if err != nil {
		t.Fatalf("unparseable p99 %q: %v", val, err)
	}
	if got := fmt.Sprintf("%.2f", p99); got != all["p99 ms"] {
		t.Errorf("/metrics p99 = %s ms, table p99 = %s", got, all["p99 ms"])
	}
	if want := "fleet_latency_samples_total " + all["done"] + "\n"; !strings.Contains(page.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
}

// parsePromText asserts every non-comment line of a Prometheus text page is
// `name[{labels}] value` with a parseable float, and returns the metric names.
func parsePromText(t *testing.T, page string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		names[name] = true
	}
	return names
}

// TestMetricsEndpointDuringRun serves /metrics from a background goroutine
// while a fleet run executes and scrapes it concurrently: every scrape must
// be well-formed Prometheus text (the exposition reads only atomic
// snapshots), and the post-run scrape must carry the fleet totals.
func TestMetricsEndpointDuringRun(t *testing.T) {
	plane := telemetry.New("live")
	srv, err := telemetry.Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/metrics", srv.Addr())

	scrape := func() string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("scrape body: %v", err)
		}
		return string(body)
	}

	done := make(chan error, 1)
	go func() {
		spec := testOpenLoopSpec(2, 60)
		spec.Telemetry = plane
		_, err := RunOpenLoop(spec)
		done <- err
	}()
	scrapes := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			final := scrape()
			names := parsePromText(t, final)
			for _, want := range []string{"fleet_shards", "fleet_events_total", "fleet_segments_total",
				"fleet_shard_step_lag_seconds", "fleet_latency_ms", "phase_wall_seconds_total"} {
				if !names[want] {
					t.Fatalf("final scrape missing %s:\n%s", want, final)
				}
			}
			if scrapes == 0 {
				t.Log("run finished before any concurrent scrape landed (fine on slow machines)")
			}
			return
		default:
			parsePromText(t, scrape())
			scrapes++
		}
	}
}
