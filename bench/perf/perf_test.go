package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary: execute
// re-runs os.Executable() with "child ..." for every workload-pass.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func findEndToEnd(name string) *endToEndMetric {
	for i := range endToEndMetrics {
		if endToEndMetrics[i].name == name {
			return &endToEndMetrics[i]
		}
	}
	return nil
}

func sorted(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// TestDeclaration holds metrics.go, workloads.go and BENCHMARK.json to one
// another and to the driver's limits.
func TestDeclaration(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"bench/perf"}) {
		t.Errorf("paths = %v, want [bench/perf]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	var gated []endToEndMetric
	for _, m := range endToEndMetrics {
		if m.gated {
			gated = append(gated, m)
		}
	}
	if len(b.EndToEnd) != len(gated) || len(gated) > 16 {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness gates %d (limit 16)", len(b.EndToEnd), len(gated))
	}
	setup := false
	for i, d := range b.EndToEnd {
		checkName(d.Name)
		m := gated[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, the harness declares %s %s %s %g", i, d, m.name, m.unit, m.better, m.bound)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s does not match %v", d.Unit, d.Name, unitRE)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		} else if d.Bound > gated[0].bound {
			t.Errorf("%s: bound %g is larger than setup_s's", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" in s, lower is better`)
	}

	if len(b.PerLayer) != len(layerMetrics) || len(layerMetrics) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d (limit 128)", len(b.PerLayer), len(layerMetrics))
	}
	for i, d := range b.PerLayer {
		checkName(d.Name)
		m := layerMetrics[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, the harness declares %s %s %s", i, d, m.name, m.unit, m.better)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s does not match %v", d.Unit, d.Name, unitRE)
		}
	}

	// Every prediction names an end-to-end metric and workloads that exist.
	for _, m := range layerMetrics {
		if len(m.moves) == 0 || len(m.on) == 0 {
			t.Errorf("%s: no prediction (moves %v on %v)", m.name, m.moves, m.on)
		}
		for _, e := range m.moves {
			if findEndToEnd(e) == nil {
				t.Errorf("%s should move %q, which is not an end-to-end metric", m.name, e)
			}
		}
		for _, w := range append(append([]string(nil), m.on...), m.notOn...) {
			if findWorkload(w) == nil {
				t.Errorf("%s names workload %q, which does not exist", m.name, w)
			}
		}
	}
}

// TestQuickRun runs every workload, the drivers and the traced run at smoke
// size, so all output checks run, and holds what comes out to the
// declaration in both directions.
func TestQuickRun(t *testing.T) {
	dir := t.TempDir()
	results, err := execute(runConfig{seed: 7, quick: true, workloads: allWorkloads(), passes: 2, timed: true, traced: true, artefacts: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)

	var wantE2E, wantLayer []string
	for _, d := range b.EndToEnd {
		wantE2E = append(wantE2E, d.Name)
	}
	for _, d := range b.PerLayer {
		wantLayer = append(wantLayer, d.Name)
	}
	carried := map[string]bool{}
	for _, w := range workloads {
		r := results[w.name]
		if r == nil {
			t.Fatalf("no result for %s", w.name)
		}
		if got := sortedKeys(benchMetrics(r, false)); !reflect.DeepEqual(got, sorted(wantE2E)) {
			t.Errorf("%s: bench mode prints end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, sorted(wantE2E))
		}
		if got := sortedKeys(benchMetrics(r, true)); !reflect.DeepEqual(got, sorted(wantLayer)) {
			t.Errorf("%s: bench mode prints per-layer metrics %v, BENCHMARK.json declares %v", w.name, got, sorted(wantLayer))
		}
		for name, mv := range r.EndToEnd {
			m := findEndToEnd(name)
			if m == nil {
				t.Errorf("%s: run reports undeclared end-to-end metric %q", w.name, name)
				continue
			}
			if m.gated && !(mv.Value > 0) {
				t.Errorf("%s: gated metric %s = %v, want > 0", w.name, name, mv.Value)
			}
		}
		for _, m := range endToEndMetrics {
			if _, ok := r.EndToEnd[m.name]; m.gated && !ok {
				t.Errorf("%s does not carry gated metric %s", w.name, m.name)
			}
		}
		for name := range r.PerLayer {
			carried[name] = true
		}
		if r.Digest == "" || r.Iterations != 2*variants {
			t.Errorf("%s: digest %q, %d timed iterations, want %d", w.name, r.Digest, r.Iterations, 2*variants)
		}
	}
	if got := sortedKeys(carried); !reflect.DeepEqual(got, sorted(wantLayer)) {
		t.Errorf("per-layer metrics some workload carries: %v\ndeclared: %v", got, sorted(wantLayer))
	}

	// The artefacts of a run: one folded profile per workload and the spans.
	var spans []span
	data, err := os.ReadFile(dir + "/spans.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	names := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name] = true
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if _, ok := byID[s.Parent]; s.Parent != 0 && !ok {
			t.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
	}
	for _, want := range []string{"workload churn", "pass 0", "traced run", "iteration", "OpenLoop.Run", "Chaos.Run", "Network.Run", "drivers"} {
		if !names[want] {
			t.Errorf("spans.json has no %q span", want)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(dir + "/profile-" + w.name + ".folded"); err != nil {
			t.Error(err)
		}
	}
}

// TestProfileFolding checks the bucket rules on hand-made stacks.
func TestProfileFolding(t *testing.T) {
	stacks := []stackSample{
		// memmove under ByteQueue.Append: the layer is buffer, the class copy.
		{value: 40, stack: []string{"runtime.memmove", "mptcpgo/internal/buffer.(*ByteQueue).Append", "mptcpgo/internal/core.(*Connection).Write", "mptcpgo/internal/fleet.(*Shard).Step", "main.main"}},
		// An allocation made by core: alloc, charged to core.
		{value: 20, stack: []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "mptcpgo/internal/core.(*Manager).Dial", "mptcpgo.(*Network).Dial", "main.runBulk"}},
		// A GC assist inside an allocation is GC work, not allocation.
		{value: 10, stack: []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "mptcpgo/internal/tcp.(*Endpoint).Write"}},
		// A background mark worker has no program frame.
		{value: 20, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		// Facade-only and harness-only stacks.
		{value: 5, stack: []string{"encoding/json.Marshal", "mptcpgo.(*Result).JSON", "main.digestResult"}},
		{value: 4, stack: []string{"crypto/sha256.block", "main.digestResult"}},
		// No symbols at all.
		{value: 1},
	}
	fp := foldProfile(stacks)
	want := map[string]float64{"buffer": 0.40, "core": 0.20, "tcp": 0.10, "runtime": 0.20, "facade": 0.05, "harness": 0.04}
	for bucket, share := range want {
		if got := fp.Layer[bucket]; got < share-1e-9 || got > share+1e-9 {
			t.Errorf("layer %s = %v, want %v", bucket, got, share)
		}
	}
	if len(fp.Layer) != len(want) {
		t.Errorf("layers %v, want exactly %v", fp.Layer, want)
	}
	if fp.Unknown < 0.01-1e-9 || fp.Unknown > 0.01+1e-9 {
		t.Errorf("unknown = %v, want 0.01", fp.Unknown)
	}
	for class, share := range map[string]float64{"copy": 0.40, "alloc": 0.20, "gc": 0.30} {
		if got := fp.Runtime[class]; got < share-1e-9 || got > share+1e-9 {
			t.Errorf("runtime %s = %v, want %v", class, got, share)
		}
	}
}

// TestCompare walks compare through each verdict.
func TestCompare(t *testing.T) {
	mk := func(rev string, wall, p99 float64, passes []float64) perfFile {
		return perfFile{
			Provenance: provenance{Revision: rev, Seed: 42},
			Workloads: map[string]*workloadResult{"churn": {
				Digest: "d-" + fmt.Sprint(p99),
				EndToEnd: map[string]metricValue{
					"wall_s":     {Value: wall, Unit: "s", Passes: passes},
					"sim_p99_ms": {Value: p99, Unit: "ms"},
				},
			}},
		}
	}
	steady := []float64{0.99, 1.01}
	base := mk("abc", 1.0, 900, steady)
	cases := []struct {
		name     string
		b        perfFile
		failures int
		verdict  verdict
	}{
		{"same", mk("abc", 1.02, 900, steady), 0, verdictOK},
		{"slower than the bound", mk("def", 1.5, 900, steady), 1, verdictWorse},
		{"slower, but the passes disagree by more", mk("def", 1.5, 900, []float64{0.5, 2.5}), 0, verdictUnresolved},
		{"within the bound, but too noisy to tell", mk("def", 1.0, 900, []float64{0.6, 1.4}), 0, verdictUnresolved},
		{"faster", mk("def", 0.7, 900, steady), 0, verdictOK},
		// One revision, one seed: a sim-time number must repeat exactly (the
		// digest differs with it, which is a second failing row).
		{"sim-time drift inside one revision", mk("abc", 1.0, 901, steady), 2, verdictMismatch},
		{"sim-time change across revisions, inside its bound", mk("def", 1.0, 901, steady), 0, verdictOK},
		{"sim-time change across revisions, beyond its bound", mk("def", 1.0, 1000, steady), 1, verdictWorse},
	}
	for _, c := range cases {
		var out strings.Builder
		if got := compareFiles(&out, base, c.b); got != c.failures {
			t.Errorf("%s: %d failing rows, want %d\n%s", c.name, got, c.failures, out.String())
		}
		if !strings.Contains(out.String(), string(c.verdict)) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
	}

	// A metric or a workload on one side only fails the comparison.
	oneSided := mk("def", 1.0, 900, steady)
	delete(oneSided.Workloads["churn"].EndToEnd, "sim_p99_ms")
	if got := compareFiles(io.Discard, base, oneSided); got != 1 {
		t.Errorf("missing metric: %d failing rows, want 1", got)
	}
	oneSided.Workloads["bulk"] = &workloadResult{}
	if got := compareFiles(io.Discard, base, oneSided); got != 2 {
		t.Errorf("missing metric and workload: %d failing rows, want 2", got)
	}
}
