// Package telemetry is what a fleet run writes about itself: a wall-clock
// phase profiler, the fleet's event and segment totals, and run provenance. All of it ends up in artefacts — the -out
// runinfo sidecar, the trace directory's provenance block, a one-shot
// Prometheus text snapshot — and none of it is exposed while the run is
// still going.
//
// The package obeys the same attach-changes-nothing discipline as the flight
// recorder: nothing here ever feeds back into the deterministic simulation.
// A shard adds its totals once, when it finishes. Wall-clock values
// (profiler spans) come from the monotonic host clock and are never mixed
// into sim-time results. Latency statistics are not kept here: the result
// table computes them from the merged samples, and the -out file holds them.
package telemetry

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Plane bundles what one run records: a phase profiler and the fleet
// totals. A nil *Plane is a valid
// "telemetry off" value — every method and every derived handle is a no-op —
// so specs carry a single optional pointer and instrumented code never
// branches.
type Plane struct {
	Prof *Profiler

	events, segments atomic.Uint64
}

// New returns an empty plane.
func New() *Plane {
	return &Plane{Prof: NewProfiler()}
}

// StartSpan opens a profiler span; no-op (nil span) on a nil plane.
func (p *Plane) StartSpan(path string) *Span {
	if p == nil {
		return nil
	}
	return p.Prof.Start(path)
}

// AddShard adds one finished shard's simulator events and wire segments to
// the fleet totals. Each shard calls it once; shards finish concurrently.
func (p *Plane) AddShard(events, segments uint64) {
	if p == nil {
		return
	}
	p.events.Add(events)
	p.segments.Add(segments)
}

// WritePrometheus renders the plane in Prometheus text format: the fleet
// totals and the profiler phases.
func (p *Plane) WritePrometheus(w io.Writer) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "# HELP fleet_events_total simulator events processed across shards\n# TYPE fleet_events_total counter\nfleet_events_total %d\n", p.events.Load())
	fmt.Fprintf(w, "# HELP fleet_segments_total data segments sent across shards\n# TYPE fleet_segments_total counter\nfleet_segments_total %d\n", p.segments.Load())
	p.Prof.WritePrometheus(w)
}
