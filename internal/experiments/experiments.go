// Package experiments contains one harness per table/figure in the paper's
// evaluation. Each experiment builds its topology, runs the workload on the
// discrete-event simulator and returns a structured Result (tables, numeric
// series and run metadata), so `mptcpbench -run figN` (or the corresponding
// Benchmark in bench_test.go) regenerates the figure's data in text, JSON or
// CSV form.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options controls how an experiment is run. Construct it with NewOptions
// and the With* functional options; the zero value (plus withDefaults) keeps
// the historical behaviour of a full sweep at seed 42.
type Options struct {
	// Quick shrinks transfer durations and sweep densities so the experiment
	// finishes in a few seconds (used by `go test -bench` and CI); the full
	// sweep is the default for the CLI.
	Quick bool
	// Seed is the base RNG seed; every run derives its own deterministic
	// seed from it.
	Seed uint64
	// PaperEraCPU replaces this machine's measured per-byte checksum cost
	// with a fixed 2012-class figure in the experiments that model host CPU
	// (Figure 3), so the emulated curves keep the paper's shape on modern
	// hardware.
	PaperEraCPU bool

	// PcapDir, when non-empty, makes every simulated sweep point write a
	// classic pcap file, <id>-<NN>.pcap, into this directory (see World).
	// Capture taps only observe traffic through the wire codec; results are
	// unchanged.
	PcapDir string

	// Trace, when enabled (non-empty Dir), makes every simulated sweep point
	// write `<id>-<NN>-trace.json` and `<id>-<NN>-events.jsonl` into
	// Trace.Dir. Capture never changes the experiment's own results.
	Trace TraceSpec

	// seedSet records that Seed was supplied explicitly (WithSeed), making
	// seed 0 a legal seed instead of an alias for the default.
	seedSet bool
}

// Option mutates Options; see WithQuick, WithSeed and WithPaperEraCPU.
type Option func(*Options)

// WithQuick selects the reduced sweep.
func WithQuick() Option { return func(o *Options) { o.Quick = true } }

// WithSeed sets the base RNG seed. Any value — including 0 — is used as
// given; the default seed (42) applies only when WithSeed is absent.
func WithSeed(seed uint64) Option {
	return func(o *Options) {
		o.Seed = seed
		o.seedSet = true
	}
}

// WithPaperEraCPU selects the 2012-class host CPU cost model.
func WithPaperEraCPU() Option { return func(o *Options) { o.PaperEraCPU = true } }

// WithPcapDir enables per-point pcap capture into dir.
func WithPcapDir(dir string) Option { return func(o *Options) { o.PcapDir = dir } }

// WithTrace enables flight-recorder capture into dir; interval sets the
// per-subflow time-series cadence (0 records events only).
func WithTrace(dir string, interval time.Duration) Option {
	return func(o *Options) { o.Trace = TraceSpec{Dir: dir, ProbeInterval: interval} }
}

// NewOptions applies the functional options to a zero Options value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 && !o.seedSet {
		o.Seed = 42
	}
	return o
}

// Table is one table or figure series produced by an experiment.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-form note rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// MarshalJSON keeps an empty row set encoded as [] rather than null.
func (t *Table) MarshalJSON() ([]byte, error) {
	type alias Table
	a := alias(*t)
	if a.Rows == nil {
		a.Rows = [][]string{}
	}
	if a.Columns == nil {
		a.Columns = []string{}
	}
	return json.Marshal(a)
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	// ID is the short identifier used on the command line (e.g. "fig4").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes the experiment and returns its result; the registry
	// fills in the identification and metadata fields afterwards.
	Run func(opt Options) (*Result, error)
}

var registry = map[string]Experiment{}

// Register adds an experiment to the registry (called from init functions).
func Register(e Experiment) {
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id and returns its structured result.
func Run(id string, opts ...Option) (*Result, error) {
	return RunWithOptions(id, NewOptions(opts...))
}

// RunWithOptions is Run for callers that already hold an Options value.
func RunWithOptions(id string, opt Options) (*Result, error) {
	e, ok := Get(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	opt = opt.withDefaults()
	res, err := e.Run(opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	// Elapsed stays 0: a result is a function of (id, options), so encoded
	// results are byte-comparable; callers time runs themselves.
	res.ID = e.ID
	res.Title = e.Title
	res.Seed = opt.Seed
	res.Quick = opt.Quick
	res.PaperEraCPU = opt.PaperEraCPU
	return res, nil
}
