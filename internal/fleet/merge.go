package fleet

import (
	"fmt"
	"strconv"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/telemetry"
	"mptcpgo/internal/trace"
)

// latencyStats is the mergeable latency record every HTTP workload folds:
// the raw per-request latencies (milliseconds) in merge order, the log-scale
// histogram, and whether any pool dropped raw samples at its SampleCap — in
// which case statistics must come from the histogram. Merging is
// deterministic as long as it happens in a stable order; the engine always
// merges pools in member order within a shard and shards in index order,
// which also keeps fleet-level percentiles weighting requests, not shards.
type latencyStats struct {
	samples []float64
	hist    *telemetry.Histogram
	capped  bool
}

// latencySource is what both httpsim pool kinds expose of their latencies.
type latencySource interface {
	LatencySamples() []float64
	LatencyHist() *telemetry.Histogram
	Capped() bool
}

func latencyOf(p latencySource) latencyStats {
	return latencyStats{samples: p.LatencySamples(), hist: p.LatencyHist(), capped: p.Capped()}
}

func (l *latencyStats) merge(o latencyStats) {
	l.samples = append(l.samples, o.samples...)
	l.capped = l.capped || o.capped
	if o.hist.Count() == 0 {
		return
	}
	if l.hist == nil {
		l.hist = telemetry.NewLatencyHistogram()
	}
	if err := l.hist.Merge(o.hist); err != nil {
		// All pool histograms share one constructor; a mismatch is a bug.
		panic(err)
	}
}

// percentile returns the merged latency percentile in milliseconds: the exact
// order statistic from the raw samples when retention was unlimited, the
// histogram quantile once any pool was capped.
func (l *latencyStats) percentile(p float64) float64 {
	if l.capped {
		return l.hist.Quantile(p)
	}
	return trace.Percentile(l.samples, p)
}

// mean returns the merged mean latency in milliseconds under the same
// raw-vs-histogram dispatch as percentile.
func (l *latencyStats) mean() float64 {
	if l.capped {
		return l.hist.Mean()
	}
	return trace.Mean(l.samples)
}

// poolMerge folds closed-loop httpsim.PoolResults (and their latencies) into
// one aggregate: a shard's, or the fleet's.
type poolMerge struct {
	clients   int
	completed int
	failed    int
	bytes     uint64
	// duration is the longest member window; with shards running concurrently
	// in the emulated fleet, the slowest member bounds the fleet wall-clock.
	duration time.Duration
	events   uint64
	latencyStats
}

func (m *poolMerge) add(r httpsim.PoolResult, lat latencyStats) {
	m.merge(poolMerge{completed: r.Completed, failed: r.Failed, bytes: r.BytesReceived,
		duration: r.Duration, latencyStats: lat})
}

func (m *poolMerge) merge(o poolMerge) {
	m.clients += o.clients
	m.completed += o.completed
	m.failed += o.failed
	m.bytes += o.bytes
	if o.duration > m.duration {
		m.duration = o.duration
	}
	m.events += o.events
	m.latencyStats.merge(o.latencyStats)
}

// requestsPerSec is the completion rate over the merged window.
func (m *poolMerge) requestsPerSec() float64 {
	if m.duration <= 0 {
		return 0
	}
	return float64(m.completed) / m.duration.Seconds()
}

// row renders the aggregate as one fleet-http table row. Latency statistics
// are recomputed from the merged samples (not averaged from per-shard
// statistics, which would weight shards instead of requests) and truncated
// to whole nanoseconds the way httpsim.PoolResult reports them.
func (m *poolMerge) row(label string) []string {
	var mean, p95 time.Duration
	if m.capped || len(m.samples) > 0 {
		mean = time.Duration(m.mean() * float64(time.Millisecond))
		p95 = time.Duration(m.percentile(95) * float64(time.Millisecond))
	}
	return []string{label, strconv.Itoa(m.clients), strconv.Itoa(m.completed), strconv.Itoa(m.failed),
		fmt.Sprintf("%.1f", m.requestsPerSec()), fmtMs(mean), fmtMs(p95),
		fmtMB(m.bytes), fmt.Sprint(m.events)}
}

// merger is a shard output that folds into a fleet total and renders as one
// table row; P is the pointer type carrying the methods.
type merger[T any] interface {
	*T
	merge(T)
	row(label string) []string
}

// addShardRows renders the table every scenario ends on: one row per shard
// in index order plus a trailing "all" row of the merged total, which it
// returns. Both kinds of row come from T's one row method, so each column is
// listed once.
func addShardRows[T any, P merger[T]](table *experiments.Table, outs []T) T {
	var total T
	for i := range outs {
		table.AddRow(P(&outs[i]).row(strconv.Itoa(i))...)
		P(&total).merge(outs[i])
	}
	table.AddRow(P(&total).row("all")...)
	return total
}

// shardSeries builds a numeric series indexed by shard: X is the shard index,
// Y is y applied to each shard's output in shard order.
func shardSeries[T any](name, unit string, outs []T, y func(*T) float64) experiments.Series {
	s := experiments.Series{Name: name, Unit: unit, XLabel: "shard",
		X: make([]float64, len(outs)), Y: make([]float64, len(outs))}
	for i := range outs {
		s.X[i] = float64(i)
		s.Y[i] = y(&outs[i])
	}
	return s
}

// fmtMs renders a duration as milliseconds with fixed precision, for table
// cells that must stay byte-stable across runs.
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// fmtMB renders a byte count as megabytes with fixed precision.
func fmtMB(n uint64) string {
	return fmt.Sprintf("%.2f", float64(n)/(1<<20))
}
