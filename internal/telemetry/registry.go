package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a monotonically increasing atomic counter. Safe for concurrent
// use from shard goroutines; exposition goroutines read Value.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter. Nil-receiver safe so call sites stay
// unconditional whether or not telemetry is attached.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-receiver safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// Registry holds named counters and gauges and renders them in sorted name
// order so exposition output is deterministic. Metric registration is
// idempotent: asking for an existing name returns the existing instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		help:     make(map[string]string),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Nil-receiver safe: returns a nil *Counter whose methods are no-ops.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.help[name] = help
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.help[name] = help
	}
	return g
}

// WritePrometheus renders every registered metric in Prometheus text format,
// sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges))
	for name := range r.counters {
		names = append(names, name)
	}
	for name := range r.gauges {
		names = append(names, name)
	}
	counters := make(map[string]uint64, len(r.counters))
	gauges := make(map[string]float64, len(r.gauges))
	help := make(map[string]string, len(r.help))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	for name, h := range r.help {
		help[name] = h
	}
	r.mu.Unlock()

	sort.Strings(names)
	for _, name := range names {
		if h := help[name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, h)
		}
		if v, ok := counters[name]; ok {
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
		} else {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name])
		}
	}
}
