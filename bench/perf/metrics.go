package main

// This file is the benchmark's declaration: which end-to-end metrics exist,
// in which direction each is good and by how much it may worsen, and which
// per-layer metric is expected to move which end-to-end metric on which
// workload. BENCHMARK.json mirrors it and perf_test.go keeps the two equal.

// endToEndMetric declares one number a user of the system sees.
type endToEndMetric struct {
	name, unit string
	// kind says which clock the number is on: "host" seconds and bytes the
	// user pays to get a result, or "sim" numbers they read out of it.
	// Sim-time metrics repeat exactly for a fixed seed.
	kind string
	// better is the good direction, "lower" or "higher".
	better string
	// bound is the relative worsening that counts as a regression.
	bound float64
	// gated metrics are carried by every workload and are never 0, so they
	// can be listed in BENCHMARK.json; the others are reported by `run` and
	// judged by `compare` only.
	gated bool
	def   string
}

var endToEndMetrics = []endToEndMetric{
	{"setup_s", "s", "host", "lower", 0.25, true, "child-process start to first timed iteration: build inputs and 3 warm-up iterations; median of the passes, scaled to the probe's speed"},
	{"wall_s", "s", "host", "lower", 0.20, true, "wall-clock of one timed iteration, scaled to the probe's speed: median per scenario seed, mean over the seeds"},
	{"alloc_mb", "MB/iter", "host", "lower", 0.05, true, "bytes allocated (TotalAlloc) by one timed iteration"},
	{"allocs_k", "k/iter", "host", "lower", 0.05, true, "thousands of heap objects allocated (Mallocs) by one timed iteration"},
	{"peak_rss_mb", "MB", "host", "lower", 0.20, true, "resident-set high-water mark of the workload's child processes, less the probe's buffers; median of the passes"},
	{"ok_share", "ratio", "sim", "higher", 0.02, true, "units of work that completed correctly over units offered: flows done/offered, intact members/members, 1 for a verified 2-subflow bulk transfer"},
	{"sim_goodput_mbps", "Mbit/s", "sim", "higher", 0.02, false, "application bytes delivered over the sim-time span (churn, bulk, corelink)"},
	{"sim_p50_ms", "ms", "sim", "lower", 0.05, false, "flow completion time, median, timed from the scheduled arrival (churn, corelink)"},
	{"sim_p99_ms", "ms", "sim", "lower", 0.05, false, "flow completion time, 99th percentile: at least 19 samples lie beyond it (churn, corelink)"},
}

// layerMetric declares one per-layer number and the prediction attached to
// it: which end-to-end metrics it should move, on which workloads, and on
// which it should not.
type layerMetric struct {
	name, unit, better string
	// source is "driver" (layer_<pkg>.go, outside any workload), "count" (an
	// exact count the workload's result carries) or "trace" (the traced run).
	source string
	moves  []string
	on     []string
	notOn  []string
}

// lm builds the rows of one line of the layer table: several metrics that
// share a prediction.
func lm(source string, moves, on, notOn []string, metrics ...[3]string) []layerMetric {
	rows := make([]layerMetric, 0, len(metrics))
	for _, m := range metrics {
		rows = append(rows, layerMetric{name: m[0], unit: m[1], better: m[2], source: source, moves: moves, on: on, notOn: notOn})
	}
	return rows
}

var (
	wall      = []string{"wall_s"}
	wallAlloc = []string{"wall_s", "allocs_k"}
	memory    = []string{"wall_s", "alloc_mb", "allocs_k", "peak_rss_mb"}
	all4      = []string{"churn", "bulk", "corelink", "chaos"}
	fleets    = []string{"churn", "corelink", "chaos"}
)

var layerMetrics = concat(
	lm("driver", wall, []string{"bulk", "corelink"}, []string{"chaos"},
		[3]string{"sim.schedule_step_ns", "ns", "lower"}, [3]string{"sim.timer_rearm_ns", "ns", "lower"}),
	lm("count", wall, all4, nil,
		[3]string{"sim.events", "count", "lower"}, [3]string{"sim.ns_per_event", "ns", "lower"}),
	lm("trace", wall, all4, nil, [3]string{"sim.cpu_share", "ratio", "lower"}),

	lm("driver", wallAlloc, []string{"bulk"}, []string{"chaos"},
		[3]string{"netem.link_transit_ns", "ns", "lower"}, [3]string{"netem.link_transit_allocs", "1/op", "lower"},
		[3]string{"netem.host_demux_ns", "ns", "lower"}),
	lm("count", wall, []string{"bulk", "corelink"}, nil,
		[3]string{"netem.segments", "count", "lower"}, [3]string{"netem.ns_per_segment", "ns", "lower"},
		[3]string{"netem.queue_drop_share", "ratio", "lower"}),
	lm("trace", wall, []string{"bulk", "corelink"}, nil, [3]string{"netem.cpu_share", "ratio", "lower"}),

	lm("driver", wall, []string{"bulk", "corelink"}, []string{"chaos"},
		[3]string{"packet.encode_decode_ns", "ns", "lower"}, [3]string{"packet.checksum_1460_ns", "ns", "lower"},
		[3]string{"packet.segment_cycle_ns", "ns", "lower"}, [3]string{"packet.segment_cycle_allocs", "1/op", "lower"}),
	lm("trace", wall, []string{"bulk", "corelink"}, []string{"chaos"}, [3]string{"packet.cpu_share", "ratio", "lower"}),

	lm("driver", []string{"alloc_mb", "allocs_k"}, []string{"churn"}, []string{"bulk"},
		[3]string{"pool.get_put_ns", "ns", "lower"}),
	lm("trace", []string{"alloc_mb", "allocs_k"}, []string{"churn"}, []string{"bulk"},
		[3]string{"pool.miss_share", "ratio", "lower"}),

	lm("driver", []string{"alloc_mb", "peak_rss_mb", "wall_s"}, []string{"churn"}, []string{"bulk"},
		[3]string{"buffer.bytequeue_fresh16k_ns", "ns", "lower"}, [3]string{"buffer.bytequeue_fresh16k_alloc_b", "B/op", "lower"}),
	lm("driver", wall, []string{"bulk"}, []string{"churn"},
		[3]string{"buffer.bytequeue_steady_ns", "ns", "lower"}, [3]string{"buffer.ofo_insert_ns", "ns", "lower"}),
	lm("count", wall, []string{"bulk"}, nil, [3]string{"buffer.ofo_steps_per_seg", "1/seg", "lower"}),
	lm("trace", wall, []string{"bulk", "churn"}, nil, [3]string{"buffer.cpu_share", "ratio", "lower"}),

	lm("driver", wallAlloc, []string{"churn"}, []string{"bulk"},
		[3]string{"tcp.handshake_close_ns", "ns", "lower"}, [3]string{"tcp.handshake_close_allocs", "1/op", "lower"}),
	lm("driver", wall, []string{"bulk", "corelink"}, nil,
		[3]string{"tcp.stream_ns_per_seg", "ns", "lower"}, [3]string{"tcp.stream_allocs_per_seg", "1/seg", "lower"}),
	lm("count", []string{"sim_goodput_mbps", "sim_p99_ms"}, []string{"bulk", "corelink"}, nil,
		[3]string{"tcp.retransmit_share", "ratio", "lower"}, [3]string{"tcp.timeouts", "count", "lower"}),
	lm("trace", wall, []string{"bulk", "corelink"}, nil, [3]string{"tcp.cpu_share", "ratio", "lower"}),

	lm("driver", wall, []string{"bulk"}, []string{"churn"},
		[3]string{"cc.coupled_onack_ns", "ns", "lower"}, [3]string{"sched.pick_ns", "ns", "lower"}),
	lm("trace", wall, []string{"bulk"}, []string{"churn"},
		[3]string{"cc.cpu_share", "ratio", "lower"}, [3]string{"sched.cpu_share", "ratio", "lower"}),

	lm("driver", memory, []string{"churn"}, []string{"bulk"},
		[3]string{"core.conn_cycle_ns", "ns", "lower"}, [3]string{"core.conn_cycle_allocs", "1/op", "lower"},
		[3]string{"core.conn_cycle_alloc_b", "B/op", "lower"}, [3]string{"core.keygen_1k_ns", "ns", "lower"}),
	lm("driver", []string{"wall_s", "alloc_mb"}, []string{"bulk"}, []string{"churn"},
		[3]string{"core.stream_ns_per_seg", "ns", "lower"}, [3]string{"core.stream_allocs_per_seg", "1/seg", "lower"},
		[3]string{"core.stream_alloc_b_per_seg", "B/seg", "lower"}),
	lm("trace", []string{"wall_s", "alloc_mb"}, []string{"bulk", "churn"}, nil, [3]string{"core.cpu_share", "ratio", "lower"}),
	lm("count", []string{"ok_share", "sim_p99_ms"}, []string{"chaos", "corelink"}, nil,
		[3]string{"core.reinjections", "count", "lower"}, [3]string{"core.conn_rtx", "count", "lower"},
		[3]string{"core.fallbacks", "count", "lower"}),

	lm("driver", wall, []string{"churn", "corelink"}, []string{"bulk"},
		[3]string{"httpsim.request_ns", "ns", "lower"}, [3]string{"httpsim.request_allocs", "1/op", "lower"}),
	lm("trace", wall, []string{"churn", "corelink"}, []string{"bulk"}, [3]string{"httpsim.cpu_share", "ratio", "lower"}),

	lm("driver", wall, []string{"corelink"}, []string{"churn"}, [3]string{"capacity.allocate_ns", "ns", "lower"}),
	lm("trace", wall, []string{"corelink"}, []string{"churn"},
		[3]string{"capacity.allocate_share", "ratio", "lower"}, [3]string{"fleet.epoch_barrier_share", "ratio", "lower"}),
	lm("trace", wall, fleets, []string{"bulk"},
		[3]string{"fleet.shard_step_share", "ratio", "lower"}, [3]string{"fleet.worker_utilisation", "ratio", "higher"},
		[3]string{"fleet.cpu_share", "ratio", "lower"}),

	lm("driver", wall, []string{"chaos"}, []string{"churn", "bulk", "corelink"},
		[3]string{"faults.checker_ns_per_kb", "ns", "lower"}),
	lm("trace", wall, []string{"chaos"}, []string{"churn", "bulk", "corelink"},
		[3]string{"faults.cpu_share", "ratio", "lower"}, [3]string{"middlebox.cpu_share", "ratio", "lower"}),
	lm("count", wall, []string{"chaos"}, []string{"churn", "bulk", "corelink"}, [3]string{"faults.flaps", "count", "lower"}),

	lm("trace", []string{"wall_s", "alloc_mb"}, []string{"churn", "bulk"}, []string{"chaos"},
		[3]string{"runtime.gc_share", "ratio", "lower"}, [3]string{"runtime.alloc_share", "ratio", "lower"},
		[3]string{"runtime.copy_share", "ratio", "lower"}, [3]string{"runtime.gc_cycles", "1/iter", "lower"}),
	lm("trace", wall, []string{"churn"}, nil, [3]string{"telemetry.overhead_share", "ratio", "lower"}),
)

// profiledLayers are the mptcpgo/internal packages whose share of the traced
// run's CPU profile is reported as <layer>.cpu_share.
var profiledLayers = []string{
	"sim", "netem", "packet", "buffer", "tcp", "cc", "sched", "core",
	"httpsim", "fleet", "faults", "middlebox",
}
