// Package telemetry is the run-observability plane of the fleet engine: a
// wall-clock phase profiler, a live run tracker with Prometheus exposition,
// and run-provenance capture.
//
// The package obeys the same attach-changes-nothing discipline as the flight
// recorder: nothing here ever feeds back into the deterministic simulation.
// Shard workers publish into preallocated atomic cells; exposition goroutines
// only read atomic snapshots; the latency samples are published once, after
// the merge, so every statistic derived from them is the one the result table
// prints. Wall-clock values (profiler spans, progress lines) come from the
// monotonic host clock and are never mixed into sim-time results.
package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"mptcpgo/internal/trace"
)

// Plane bundles the telemetry surfaces one run attaches: a phase profiler,
// the per-shard tracker, and (after merge) the fleet's latency samples. A nil
// *Plane is a valid "telemetry off" value — every method and every derived
// handle is a no-op — so specs carry a single optional pointer and
// instrumented code never branches.
type Plane struct {
	Label string
	Prof  *Profiler
	Track *Tracker

	mu      sync.Mutex
	latency []float64
}

// New returns a fully wired plane.
func New(label string) *Plane {
	return &Plane{
		Label: label,
		Prof:  NewProfiler(),
		Track: NewTracker(),
	}
}

// StartSpan opens a profiler span; no-op (nil span) on a nil plane.
func (p *Plane) StartSpan(path string) *Span {
	if p == nil {
		return nil
	}
	return p.Prof.Start(path)
}

// SetLatency publishes the merged fleet latency samples (milliseconds, one
// per completed flow) for exposition. The plane keeps the slice; the caller
// must not modify it afterwards.
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

// WritePrometheus renders the whole plane in Prometheus text format: tracker
// gauges, profiler phases, latency quantiles, and a small runtime block.
func (p *Plane) WritePrometheus(w io.Writer) {
	if p == nil {
		return
	}
	p.Track.WritePrometheus(w)
	p.Prof.WritePrometheus(w)
	if ms := p.Latency(); len(ms) > 0 {
		fmt.Fprint(w, "# HELP fleet_latency_ms fleet latency percentiles (exact order statistics, milliseconds)\n")
		fmt.Fprint(w, "# TYPE fleet_latency_ms gauge\n")
		for _, q := range []float64{50, 95, 99} {
			fmt.Fprintf(w, "fleet_latency_ms{quantile=\"%g\"} %g\n", q/100, trace.Percentile(ms, q))
		}
		fmt.Fprintf(w, "# HELP fleet_latency_samples_total latency observations\n# TYPE fleet_latency_samples_total counter\nfleet_latency_samples_total %d\n", len(ms))
	}
	fmt.Fprintf(w, "# HELP go_goroutines current goroutine count\n# TYPE go_goroutines gauge\ngo_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP go_gomaxprocs GOMAXPROCS\n# TYPE go_gomaxprocs gauge\ngo_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
}
