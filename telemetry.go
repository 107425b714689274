package mptcpgo

import (
	"io"
	"time"

	"mptcpgo/internal/telemetry"
)

// Telemetry is the run-observability facade: one metrics plane (counter/gauge
// registry, wall-clock phase profiler, per-shard progress tracker, merged
// latency samples) that a Fleet, OpenLoop or Chaos run feeds while it
// executes. Attaching telemetry NEVER changes a scenario's merged result —
// every number it exposes is either read from atomic snapshots beside the
// deterministic core or derived from the wall clock, and nothing flows back.
//
//	t := mptcpgo.NewTelemetry("upload-fleet")
//	defer t.Close()
//	t.Progress(os.Stderr, time.Second)
//	res, err := mptcpgo.NewChaos(42).Members(64).Telemetry(t).Run()
type Telemetry struct {
	plane *telemetry.Plane
	prog  *telemetry.Progress
	srv   *telemetry.Server
}

// NewTelemetry creates a telemetry plane; label tags progress lines and the
// Prometheus exposition.
func NewTelemetry(label string) *Telemetry {
	return &Telemetry{plane: telemetry.New(label)}
}

// Progress starts printing a live status line (sim vs wall time, event and
// segment rates, flow and shard completion, straggler lag) to w at the given
// cadence (0 = 1s) until Close.
func (t *Telemetry) Progress(w io.Writer, interval time.Duration) *Telemetry {
	if t.prog == nil {
		t.prog = telemetry.StartProgress(w, t.plane, interval)
	}
	return t
}

// ServeMetrics starts an HTTP endpoint on addr (e.g. "127.0.0.1:0") serving
// Prometheus text on /metrics, and returns the bound address. The server runs
// until Close.
func (t *Telemetry) ServeMetrics(addr string) (string, error) {
	s, err := telemetry.Serve(addr, t.plane)
	if err != nil {
		return "", err
	}
	t.srv = s
	return s.Addr(), nil
}

// WritePrometheus renders a one-shot snapshot of the full exposition —
// registry, per-shard tracker, phase profile, latency quantiles — in
// Prometheus text format.
func (t *Telemetry) WritePrometheus(w io.Writer) {
	t.plane.WritePrometheus(w)
}

// LatencyQuantile returns the p-th percentile (0..100) of the last run's
// merged flow latencies in milliseconds (0 when no run has completed yet). It
// is the exact order statistic the run's result table prints, so it is
// identical at any worker count.
func (t *Telemetry) LatencyQuantile(p float64) float64 {
	return t.plane.LatencyQuantile(p)
}

// Close stops the progress printer and metrics server, if started. Safe on a
// nil receiver.
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	t.prog.Stop()
	t.prog = nil
	if t.srv != nil {
		t.srv.Close()
		t.srv = nil
	}
}

// planeOf unwraps the internal plane (nil-safe) for the builders.
func planeOf(t *Telemetry) *telemetry.Plane {
	if t == nil {
		return nil
	}
	return t.plane
}
