package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Profiler aggregates wall-clock spans by slash-separated path
// ("run/shard-step", "run/epoch-barrier/allocate"). It measures where real
// time goes — build-graph, shard-step, epoch-barrier, allocate, merge,
// encode — and never touches sim-time: all durations come from the host's
// monotonic clock via time.Since.
//
// Profiler methods are safe for concurrent use (shard workers overlap), and
// nil-receiver safe so instrumented code paths need no telemetry branching.
type Profiler struct {
	mu    sync.Mutex
	stats map[string]*PhaseStat
}

// PhaseStat is the aggregate for one span path.
type PhaseStat struct {
	Path    string `json:"path"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// Span is one in-flight timed region. End folds it into the profiler. A
// nested region is a span whose path extends its parent's ("run/allocate").
type Span struct {
	p     *Profiler
	path  string
	start time.Time
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{stats: make(map[string]*PhaseStat)}
}

// Start begins a span at the given path. A nil profiler returns a nil span
// whose End is a no-op.
func (p *Profiler) Start(path string) *Span {
	if p == nil {
		return nil
	}
	return &Span{p: p, path: path, start: time.Now()}
}

// End records the elapsed wall time into the profiler. Safe to call once per
// span; a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.p.record(s.path, time.Since(s.start))
}

func (p *Profiler) record(path string, d time.Duration) {
	ns := int64(d)
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.stats[path]
	if !ok {
		st = &PhaseStat{Path: path, MinNs: ns, MaxNs: ns}
		p.stats[path] = st
	}
	st.Count++
	st.TotalNs += ns
	if ns < st.MinNs {
		st.MinNs = ns
	}
	if ns > st.MaxNs {
		st.MaxNs = ns
	}
}

// Snapshot returns a copy of all phase stats sorted by path.
func (p *Profiler) Snapshot() []PhaseStat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]PhaseStat, 0, len(p.stats))
	for _, st := range p.stats {
		out = append(out, *st)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// WritePrometheus renders per-phase totals as counters.
func (p *Profiler) WritePrometheus(w io.Writer) {
	stats := p.Snapshot()
	if len(stats) == 0 {
		return
	}
	fmt.Fprint(w, "# HELP phase_wall_seconds_total cumulative wall-clock per profiler phase\n")
	fmt.Fprint(w, "# TYPE phase_wall_seconds_total counter\n")
	for _, st := range stats {
		fmt.Fprintf(w, "phase_wall_seconds_total{phase=%q} %g\n", st.Path, float64(st.TotalNs)/1e9)
	}
	fmt.Fprint(w, "# HELP phase_spans_total span count per profiler phase\n")
	fmt.Fprint(w, "# TYPE phase_spans_total counter\n")
	for _, st := range stats {
		fmt.Fprintf(w, "phase_spans_total{phase=%q} %d\n", st.Path, st.Count)
	}
}
