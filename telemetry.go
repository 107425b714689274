package mptcpgo

import (
	"io"

	"mptcpgo/internal/telemetry"
)

// Telemetry is the run-observability facade: one plane (wall-clock phase
// profiler, fleet event and segment totals) that a Fleet, OpenLoop or Chaos
// run fills while it executes and that is read once it has finished. Latency
// statistics are the run's result table, not the plane's. Attaching telemetry NEVER changes a scenario's merged
// result — every number it records is either a shard total added when the
// shard finishes or derived from the wall clock, and nothing flows back.
//
//	t := mptcpgo.NewTelemetry("upload-fleet")
//	res, err := mptcpgo.NewChaos(42).Members(64).Telemetry(t).Run()
//	t.WritePrometheus(os.Stdout)
type Telemetry struct {
	plane *telemetry.Plane
}

// NewTelemetry creates an empty telemetry plane. The label names the plane
// in the caller's code; nothing the plane writes carries it.
func NewTelemetry(label string) *Telemetry {
	return &Telemetry{plane: telemetry.New()}
}

// WritePrometheus renders a one-shot snapshot of what the plane recorded —
// fleet event and segment totals and phase profile — in Prometheus text
// format.
func (t *Telemetry) WritePrometheus(w io.Writer) {
	t.plane.WritePrometheus(w)
}

// Close releases nothing: the plane holds no goroutine, listener or file.
// Safe on a nil receiver.
func (t *Telemetry) Close() {}

// planeOf unwraps the internal plane (nil-safe) for the builders.
func planeOf(t *Telemetry) *telemetry.Plane {
	if t == nil {
		return nil
	}
	return t.plane
}
