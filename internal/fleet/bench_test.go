package fleet

import (
	"testing"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/telemetry"
	"mptcpgo/internal/workload"
)

// BenchmarkFleetSegmentRate measures the fleet engine's event-processing
// throughput in wire segments per simulated workload: one fleet-openloop run
// per iteration, reporting segments/sec of wall-clock time. The figure is the
// engine's capacity currency — every netem link transit is one segment — so
// regressions here surface scheduler, pool or codec slowdowns before any
// scenario-level timing does.
func BenchmarkFleetSegmentRate(b *testing.B) {
	benchmarkFleetSegmentRate(b, nil)
}

// BenchmarkFleetSegmentRateTelemetry is the same workload with a telemetry
// plane attached: the delta against BenchmarkFleetSegmentRate is the whole
// cost of the instrumentation (the phase spans, one totals add per shard and
// the merged latency slice handed over once), which must stay within
// run-to-run noise.
func BenchmarkFleetSegmentRateTelemetry(b *testing.B) {
	benchmarkFleetSegmentRate(b, telemetry.New())
}

func benchmarkFleetSegmentRate(b *testing.B, plane *telemetry.Plane) {
	spec := OpenLoopSpec{
		Common:       Common{Seed: 42, Shards: 4},
		Hosts:        12,
		Arrival:      workload.Poisson(200),
		Sizes:        workload.FixedSize(16 << 10),
		Window:       2 * time.Second,
		FlowDeadline: 3 * time.Second,
	}
	spec.Telemetry = plane
	spec = spec.withDefaults()
	var segments uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run[*openLoopState, openLoopOut](spec.Common, "fleet-openloop", "", spec.Hosts, openLoopScenario{&spec},
			func(_ *experiments.Result, outs []openLoopOut) {
				for _, out := range outs {
					segments += out.segments
				}
			})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if segments == 0 {
		b.Fatal("benchmark workload serialized no segments")
	}
	b.ReportMetric(float64(segments)/b.Elapsed().Seconds(), "segments/sec")
}
