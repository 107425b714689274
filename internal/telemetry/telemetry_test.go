package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}

func TestProfilerSpanNesting(t *testing.T) {
	p := NewProfiler()
	run := p.Start("run")
	step := run.Child("shard-step")
	time.Sleep(time.Millisecond)
	step.End()
	alloc := run.Child("allocate")
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
	s.Child("y").End()
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
	p := New("test")
	p.Reg.Counter("capacity_epochs_total", "epochs allocated").Add(3)
	p.Reg.Gauge("demo_gauge", "a gauge").Set(1.5)
	cell := p.Track.Cell(0, 2)
	cell.SimNowNs.Store(int64(2 * time.Second))
	cell.Events.Store(100)
	p.Track.Cell(1, 2).SimNowNs.Store(int64(time.Second))
	span := p.StartSpan("run")
	span.End()
	p.SetLatency([]float64{50, 5})

	var sb strings.Builder
	p.WritePrometheus(&sb)
	seen := parsePrometheus(t, sb.String())
	for _, want := range []string{
		"capacity_epochs_total", "demo_gauge",
		"fleet_shard_sim_time_seconds", "fleet_shard_step_lag_seconds",
		"fleet_sim_time_seconds", "fleet_events_total",
		"phase_wall_seconds_total", "fleet_latency_ms", "go_goroutines",
	} {
		if !seen[want] {
			t.Errorf("missing metric %s in exposition:\n%s", want, sb.String())
		}
	}
}

func TestTrackerSnapshotLag(t *testing.T) {
	tr := NewTracker()
	a := tr.Cell(0, 3)
	b := tr.Cell(1, 3)
	c := tr.Cell(2, 3)
	a.SimNowNs.Store(int64(5 * time.Second))
	b.SimNowNs.Store(int64(2 * time.Second))
	c.SimNowNs.Store(int64(4 * time.Second))
	c.Done.Store(true)

	snap := tr.Snapshot()
	if snap.Shards != 3 || snap.ShardsDone != 1 {
		t.Fatalf("shards %d done %d", snap.Shards, snap.ShardsDone)
	}
	if snap.SimMax != 5*time.Second {
		t.Errorf("SimMax %v", snap.SimMax)
	}
	if snap.LagShard != 1 || snap.MaxLag != 3*time.Second {
		t.Errorf("lag shard %d lag %v, want shard 1 +3s", snap.LagShard, snap.MaxLag)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	p := New("serve-test")
	p.Track.Cell(0, 1).Events.Store(42)
	srv, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := httpGet(t, "http://"+srv.Addr()+"/metrics")
	seen := parsePrometheus(t, body)
	if !seen["fleet_events_total"] {
		t.Fatalf("scrape missing fleet_events_total:\n%s", body)
	}
}

func TestRunInfoRoundTrip(t *testing.T) {
	ri := CollectRunInfo("fleet-http", 42, true)
	ri.SetFlag("shards", "4")
	if ri.GoVersion == "" || ri.GOMAXPROCS < 1 {
		t.Fatalf("incomplete env: %+v", ri)
	}
	p := New("x")
	p.StartSpan("run").End()
	p.SetLatency([]float64{30, 10, 20})
	ri.Finish(p, 123*time.Millisecond)
	if ri.WallClockMs != 123 || len(ri.Phases) != 1 || ri.LatencyObs != 3 || ri.LatencyP50 != 20 || ri.LatencyP99 != 30 {
		t.Fatalf("finish did not fold results: %+v", ri)
	}
	cfg := ri.Config()
	if cfg.WallClockMs != 0 || cfg.Phases != nil || cfg.LatencyObs != 0 {
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
	p.StartSpan("x").Child("y").End()
	p.SetLatency([]float64{1})
	if p.Latency() != nil || p.LatencyQuantile(50) != 0 {
		t.Fatal("nil plane latency")
	}
	var sb strings.Builder
	p.WritePrometheus(&sb)
	if StartProgress(&sb, nil, 0) != nil {
		t.Fatal("nil plane progress should be nil")
	}
	var pr *Progress
	pr.Stop()
}
