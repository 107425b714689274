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
)

// Options controls how an experiment is run; the zero value is a full sweep
// at seed 0.
type Options struct {
	// Quick shrinks transfer durations and sweep densities so the experiment
	// finishes in a few seconds (used by `go test -bench` and CI); the full
	// sweep is the default for the CLI.
	Quick bool
	// Seed is the base RNG seed, used as given; every run derives its own
	// deterministic seed from it.
	Seed uint64

	// PcapDir, when non-empty, makes every simulated sweep point write a
	// classic pcap file, <id>-<NN>.pcap, into this directory (see World).
	// Capture taps only observe traffic through the wire codec; results are
	// unchanged.
	PcapDir string

	// Trace, when enabled (non-empty Dir), makes every simulated sweep point
	// write `<id>-<NN>-trace.json` and `<id>-<NN>-events.jsonl` into
	// Trace.Dir. Capture never changes the experiment's own results.
	Trace TraceSpec
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

// Fprint renders the table as aligned text. The last cell of a row is not
// padded, so no line ends in spaces.
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
			if i < len(widths) && i < len(cells)-1 {
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
func Run(id string, opt Options) (*Result, error) {
	e, ok := Get(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
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
	return res, nil
}
