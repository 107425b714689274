package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestResultTextFormat pins the text encoding to its historical byte layout:
// header, then each table with aligned columns and notes.
func TestResultTextFormat(t *testing.T) {
	tbl := NewTable("demo", "col", "x")
	tbl.AddRow("value", "1")
	tbl.AddNote("a note")
	res := &Result{ID: "figX", Title: "a title", Tables: []*Table{tbl}}
	var buf bytes.Buffer
	if err := res.Text(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# figX — a title\n\n" +
		"== demo ==\n" +
		"  col    x\n" +
		"  value  1\n" +
		"  note: a note\n" +
		"\n"
	if buf.String() != want {
		t.Fatalf("text encoding drifted:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestGoldenJSON pins the JSON encoding of one quick experiment. The run is
// deterministic (fixed seed, simulated clock, no wall-clock field).
// Regenerate with: go test ./internal/experiments -run TestGoldenJSON -update
func TestGoldenJSON(t *testing.T) {
	res, err := Run("rationale", Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "rationale_quick.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSON encoding drifted from golden file %s:\n%s", golden, diffHint(string(want), buf.String()))
	}
}

// diffHint returns the first differing line of two texts.
func diffHint(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

func TestCSVEncoding(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("1", "2")
	res := &Result{
		ID: "x", Title: "y", Seed: 5,
		Tables: []*Table{tbl},
		Series: []Series{{Name: "s", Unit: "Mbps", X: []float64{1}, Y: []float64{2.5}}},
	}
	var buf bytes.Buffer
	if err := res.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"experiment,x,y", "seed,5", "table,t", "a,b", "1,2", "series,s,Mbps", "1,2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	res, err := Run("rationale", Options{Quick: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("encoded JSON does not parse back: %v", err)
	}
	if back.ID != "rationale" || back.Seed != 11 || !back.Quick {
		t.Fatalf("metadata lost in round trip: %+v", back)
	}
	if len(back.Tables) != len(res.Tables) || len(back.Series) != len(res.Series) {
		t.Fatal("tables/series lost in round trip")
	}
}
