package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is compare's ruling on one metric of one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictUnresolved verdict = "unresolved" // the runs' own spread is wider than the bound
	verdictWorse      verdict = "worse"
	verdictMismatch   verdict = "MISMATCH" // a sim-time number differs within one revision
	verdictMissing    verdict = "MISSING"  // the metric is on one side only
)

// judge rules on B against A for one metric. worsening is the relative
// change in the bad direction; spread is the wider of the two sides' pass
// spreads. A worsening the spread could explain is unresolved, not worse; a
// metric within its bound is unchanged only if the spread would have let a
// regression of that size show.
func judge(m *endToEndMetric, a, b metricValue) (worsening, noise float64, v verdict) {
	worsening = (b.Value - a.Value) / math.Abs(a.Value)
	if m.better == "higher" {
		worsening = -worsening
	}
	noise = math.Max(spread(a.Passes), spread(b.Passes))
	switch {
	case worsening > m.bound && worsening > noise:
		return worsening, noise, verdictWorse
	case worsening > m.bound || noise > m.bound:
		return worsening, noise, verdictUnresolved
	}
	return worsening, noise, verdictOK
}

func readPerfFile(path string) (perfFile, error) {
	var f perfFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, for every end-to-end metric of every workload, both
// values, the relative difference, the bound and the verdict, and returns
// how many rows must fail the comparison.
func compareFiles(w io.Writer, a, b perfFile) (failures int) {
	// Two runs of one revision on one seed simulated the same thing: their
	// sim-time numbers and digests must be identical, not merely close.
	sameSim := a.Provenance.Revision == b.Provenance.Revision && a.Provenance.Revision != "unknown" &&
		!a.Provenance.Modified && !b.Provenance.Modified && a.Provenance.Seed == b.Provenance.Seed

	names := map[string]bool{}
	for n := range a.Workloads {
		names[n] = true
	}
	for n := range b.Workloads {
		names[n] = true
	}
	sorted := sortedKeys(names)

	fmt.Fprintf(w, "A: revision %s seed %d    B: revision %s seed %d\n", a.Provenance.Revision, a.Provenance.Seed, b.Provenance.Revision, b.Provenance.Seed)
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "spread", "bound", "verdict")
	for _, name := range sorted {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-10s on one side only  %s\n", name, verdictMissing)
			failures++
			continue
		}
		if sameSim && ra.Digest != rb.Digest {
			fmt.Fprintf(w, "%-10s result_digest %s vs %s  %s\n", name, ra.Digest, rb.Digest, verdictMismatch)
			failures++
		}
		for i := range endToEndMetrics {
			m := &endToEndMetrics[i]
			va, inA := ra.EndToEnd[m.name]
			vb, inB := rb.EndToEnd[m.name]
			if !inA && !inB {
				continue
			}
			if inA != inB {
				fmt.Fprintf(w, "%-10s %-18s on one side only  %s\n", name, m.name, verdictMissing)
				failures++
				continue
			}
			worsening, noise, v := judge(m, va, vb)
			if sameSim && m.kind == "sim" && va.Value != vb.Value {
				v = verdictMismatch
			}
			if v == verdictWorse || v == verdictMismatch {
				failures++
			}
			fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %+8.2f%% %6.2f%% %6.1f%%  %s\n",
				name, m.name, va.Value, vb.Value, 100*worsening, 100*noise, 100*m.bound, v)
		}
	}
	return failures
}

func compareMain(argv []string) error {
	if len(argv) != 2 {
		return fmt.Errorf("usage: perf compare A.json B.json")
	}
	a, err := readPerfFile(argv[0])
	if err != nil {
		return err
	}
	b, err := readPerfFile(argv[1])
	if err != nil {
		return err
	}
	if n := compareFiles(os.Stdout, a, b); n > 0 {
		return fmt.Errorf("compare: %d rows are worse, mismatched or missing", n)
	}
	return nil
}
