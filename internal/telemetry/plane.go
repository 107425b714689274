// Package telemetry is what a fleet run writes about itself: a wall-clock
// phase profiler, the fleet's event and segment totals, the merged latency
// samples, and run provenance. All of it ends up in artefacts — the -out
// runinfo sidecar, the trace directory's provenance block, a one-shot
// Prometheus text snapshot — and none of it is exposed while the run is
// still going.
//
// The package obeys the same attach-changes-nothing discipline as the flight
// recorder: nothing here ever feeds back into the deterministic simulation.
// A shard adds its totals once, when it finishes; the latency samples are
// published once, after the merge, so every statistic derived from them is
// the one the result table prints. Wall-clock values (profiler spans) come
// from the monotonic host clock and are never mixed into sim-time results.
package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"mptcpgo/internal/trace"
)

// Plane bundles what one run records: a phase profiler, the fleet totals
// and (after merge) the fleet's latency samples. A nil *Plane is a valid
// "telemetry off" value — every method and every derived handle is a no-op —
// so specs carry a single optional pointer and instrumented code never
// branches.
type Plane struct {
	Prof *Profiler

	events, segments atomic.Uint64

	mu      sync.Mutex
	latency []float64
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

// SetLatency publishes the merged fleet latency samples (milliseconds, one
// per completed flow). The plane keeps the slice; the caller must not modify
// it afterwards.
func (p *Plane) SetLatency(ms []float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.latency = ms
	p.mu.Unlock()
}

// Latency returns the last published latency samples, nil if none.
func (p *Plane) Latency() []float64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latency
}

// LatencyQuantile returns the p-th percentile (0..100) of the published
// latency samples in milliseconds, 0 if none: trace.Percentile over the same
// slice the scenario's result table was computed from.
func (p *Plane) LatencyQuantile(pct float64) float64 {
	return trace.Percentile(p.Latency(), pct)
}

// WritePrometheus renders the plane in Prometheus text format: the fleet
// totals, the profiler phases and the latency quantiles.
func (p *Plane) WritePrometheus(w io.Writer) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "# HELP fleet_events_total simulator events processed across shards\n# TYPE fleet_events_total counter\nfleet_events_total %d\n", p.events.Load())
	fmt.Fprintf(w, "# HELP fleet_segments_total data segments sent across shards\n# TYPE fleet_segments_total counter\nfleet_segments_total %d\n", p.segments.Load())
	p.Prof.WritePrometheus(w)
	if ms := p.Latency(); len(ms) > 0 {
		fmt.Fprint(w, "# HELP fleet_latency_ms fleet latency percentiles (exact order statistics, milliseconds)\n")
		fmt.Fprint(w, "# TYPE fleet_latency_ms gauge\n")
		for _, q := range []float64{50, 95, 99} {
			fmt.Fprintf(w, "fleet_latency_ms{quantile=\"%g\"} %g\n", q/100, trace.Percentile(ms, q))
		}
		fmt.Fprintf(w, "# HELP fleet_latency_samples_total latency observations\n# TYPE fleet_latency_samples_total counter\nfleet_latency_samples_total %d\n", len(ms))
	}
}
