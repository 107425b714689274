package telemetry

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProfilerSpanNesting(t *testing.T) {
	p := NewProfiler()
	run := p.Start("run")
	step := p.Start("run/shard-step")
	time.Sleep(time.Millisecond)
	step.End()
	alloc := p.Start("run/allocate")
	alloc.End()
	run.End()

	stats := p.Snapshot()
	paths := make([]string, len(stats))
	for i, st := range stats {
		paths[i] = st.Path
	}
	want := []string{"run", "run/allocate", "run/shard-step"}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Fatalf("span paths = %v, want %v", paths, want)
	}
	for _, st := range stats {
		if st.Count != 1 || st.TotalNs < 0 || st.MinNs > st.MaxNs {
			t.Errorf("bad stat %+v", st)
		}
	}
	// Parent span covers the children.
	byPath := map[string]PhaseStat{}
	for _, st := range stats {
		byPath[st.Path] = st
	}
	if byPath["run"].TotalNs < byPath["run/shard-step"].TotalNs {
		t.Errorf("parent total %d < child total %d", byPath["run"].TotalNs, byPath["run/shard-step"].TotalNs)
	}
}

func TestProfilerConcurrent(t *testing.T) {
	p := NewProfiler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s := p.Start("run/shard-step")
				s.End()
			}
		}()
	}
	wg.Wait()
	stats := p.Snapshot()
	if len(stats) != 1 || stats[0].Count != 800 {
		t.Fatalf("want 1 path with 800 spans, got %+v", stats)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	s := p.Start("x")
	s.End()
	if p.Snapshot() != nil {
		t.Fatal("nil profiler snapshot should be nil")
	}
}

// parsePrometheus checks every non-comment line is "name[{labels}] value".
func parsePrometheus(t *testing.T, text string) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable metric line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("bad label block in %q", line)
			}
			name = name[:i]
		}
		if _, err := fmt.Sscanf(fields[1], "%f", new(float64)); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		seen[name] = true
	}
	return seen
}

func TestPlanePrometheusRender(t *testing.T) {
	p := New()
	p.AddShard(100, 7)
	p.AddShard(20, 3)
	span := p.StartSpan("run")
	span.End()

	var sb strings.Builder
	p.WritePrometheus(&sb)
	page := sb.String()
	seen := parsePrometheus(t, page)
	want := []string{"fleet_events_total", "fleet_segments_total", "phase_wall_seconds_total", "phase_spans_total"}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("missing metric %s in exposition:\n%s", name, page)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("exposition has %d metrics, want only %v:\n%s", len(seen), want, page)
	}
	for _, want := range []string{"fleet_events_total 120\n", "fleet_segments_total 10\n"} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition lacks %q: the shard totals are not summed once each:\n%s", want, page)
		}
	}
}

func TestRunInfoRoundTrip(t *testing.T) {
	ri := CollectRunInfo("fleet-http", 42, true)
	ri.SetFlag("shards", "4")
	if ri.GoVersion == "" || ri.GOMAXPROCS < 1 {
		t.Fatalf("incomplete env: %+v", ri)
	}
	p := New()
	p.StartSpan("run").End()
	ri.Finish(p, 123*time.Millisecond)
	if ri.WallClockMs != 123 || len(ri.Phases) != 1 {
		t.Fatalf("finish did not fold results: %+v", ri)
	}
	cfg := ri.Config()
	if cfg.WallClockMs != 0 || cfg.Phases != nil {
		t.Fatalf("Config() should clear machine-dependent fields: %+v", cfg)
	}
	if cfg.Name != "fleet-http" || cfg.Flags["shards"] != "4" {
		t.Fatalf("Config() lost configuration: %+v", cfg)
	}
	path := t.TempDir() + "/runinfo.json"
	if err := ri.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestNilPlaneSafe(t *testing.T) {
	var p *Plane
	p.StartSpan("x").End()
	p.AddShard(1, 1)
	var sb strings.Builder
	p.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil plane wrote %q", sb.String())
	}
}
