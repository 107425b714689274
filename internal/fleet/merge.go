package fleet

import (
	"fmt"
	"strconv"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/trace"
)

// latencies is the latency record every HTTP workload folds: one completion
// latency in milliseconds per completed flow. Merging is append, and the
// engine always appends pools in member order within a shard and shards in
// index order: trace.Mean sums in slice order, so that order is part of the
// goldens, and one flat slice keeps fleet-level percentiles weighting
// requests, not shards.
type latencies []float64

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
	latencies
}

func (m *poolMerge) add(p *httpsim.ClientPool) {
	r := p.Result()
	m.merge(poolMerge{completed: r.Completed, failed: r.Failed, bytes: r.BytesReceived,
		duration: r.Duration, latencies: p.LatencySamples()})
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
	m.latencies = append(m.latencies, o.latencies...)
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
// to whole nanoseconds, which the committed goldens' bytes depend on.
func (m *poolMerge) row(label string) []string {
	mean := time.Duration(trace.Mean(m.latencies) * float64(time.Millisecond))
	p95 := time.Duration(trace.Percentile(m.latencies, 95) * float64(time.Millisecond))
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
