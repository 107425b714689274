package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Series is one numeric metric series produced by an experiment: the data
// behind a figure curve, exposed so downstream tooling (plotters, CI
// trajectory tracking) can consume experiments without parsing tables.
type Series struct {
	// Name identifies the curve ("MPTCP+M1,2", "checksum", ...).
	Name string `json:"name"`
	// Unit is the unit of the Y values ("Mbps", "KB", "steps/segment").
	Unit string `json:"unit,omitempty"`
	// XLabel describes the X axis ("buffer KB", "MSS bytes").
	XLabel string `json:"x_label,omitempty"`
	// X holds the sweep points; when empty, Y is indexed 0..n-1.
	X []float64 `json:"x,omitempty"`
	// Y holds one value per sweep point.
	Y []float64 `json:"y"`
}

// Result is the structured outcome of one experiment run: the rendered
// tables, the numeric series behind them, and run metadata. Encoders render
// it as aligned text (the layout TestResultTextFormat pins), JSON or CSV.
type Result struct {
	// ID and Title identify the experiment ("fig4", ...).
	ID    string `json:"id"`
	Title string `json:"title"`
	// Seed is the effective base RNG seed the run used.
	Seed uint64 `json:"seed"`
	// Quick reports whether the reduced sweep was run.
	Quick bool `json:"quick"`
	// PaperEraCPU reports whether the 2012-era CPU cost model was used.
	PaperEraCPU bool `json:"paper_era_cpu,omitempty"`
	// Elapsed is always 0 in results this repository produces: wall-clock is
	// machine-dependent and goes to stderr and the runinfo sidecar, so an
	// encoded result stays byte-comparable.
	Elapsed time.Duration `json:"elapsed_ns"`

	Tables []*Table `json:"tables"`
	Series []Series `json:"series,omitempty"`
}

// AddTable appends a table.
func (r *Result) AddTable(t *Table) { r.Tables = append(r.Tables, t) }

// AddSeries appends a numeric series.
func (r *Result) AddSeries(s Series) { r.Series = append(r.Series, s) }

// Text renders the result as aligned text: a "# id — title" header followed
// by each table.
func (r *Result) Text(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		t.Fprint(w)
	}
	return nil
}

// JSON renders the result as indented JSON.
func (r *Result) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSV renders the result as CSV: a metadata record, then one section per
// table (a "table" record with the title, a header record, the data records)
// and one section per series ("series" record, then x,y records). Sections
// are separated by blank records so the file splits cleanly.
func (r *Result) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec ...string) {
		// csv.Writer latches the first error; checked once at Flush.
		_ = cw.Write(rec)
	}
	write("experiment", r.ID, r.Title)
	write("seed", strconv.FormatUint(r.Seed, 10))
	write("quick", strconv.FormatBool(r.Quick))
	for _, t := range r.Tables {
		write()
		write("table", t.Title)
		write(t.Columns...)
		for _, row := range t.Rows {
			write(row...)
		}
		for _, n := range t.Notes {
			write("note", n)
		}
	}
	for _, s := range r.Series {
		write()
		write("series", s.Name, s.Unit, s.XLabel)
		for i, y := range s.Y {
			x := float64(i)
			if i < len(s.X) {
				x = s.X[i]
			}
			write(formatFloat(x), formatFloat(y))
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Encode renders the result in the named format: "text", "json" or "csv".
func (r *Result) Encode(w io.Writer, format string) error {
	switch format {
	case "", "text":
		return r.Text(w)
	case "json":
		return r.JSON(w)
	case "csv":
		return r.CSV(w)
	}
	return fmt.Errorf("experiments: unknown output format %q (want text, json or csv)", format)
}

// WriteResults renders a batch of results in the named format. Text and CSV
// concatenate the individual encodings; JSON emits a single object for one
// result and an array for several, so `-run all` produces one well-formed
// document.
func WriteResults(w io.Writer, format string, results []*Result) error {
	if format == "json" && len(results) != 1 {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	for _, r := range results {
		if err := r.Encode(w, format); err != nil {
			return err
		}
	}
	return nil
}
