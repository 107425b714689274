package fleet

import (
	"bytes"
	"strings"
	"testing"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/telemetry"
)

// TestTelemetryChangesNothing is the telemetry plane's core contract (the
// same one the flight recorder honours): attaching a full plane — profiler
// and fleet totals — must leave every scenario's merged result
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
