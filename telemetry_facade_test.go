package mptcpgo

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestTelemetryFacade drives the public observability surface end to end:
// progress lines into a buffer, a live /metrics endpoint and the latency
// quantile accessor — all attached to one open-loop run through the builder.
func TestTelemetryFacade(t *testing.T) {
	tele := NewTelemetry("facade")
	defer tele.Close()
	var buf bytes.Buffer
	tele.Progress(&buf, 5*time.Millisecond)
	addr, err := tele.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	res, err := NewOpenLoop(7).
		Hosts(8).
		Rate(60).
		Window(time.Second).
		Shards(2).
		Telemetry(tele).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Tables) == 0 {
		t.Fatal("run produced no tables")
	}

	if q := tele.LatencyQuantile(99); q <= 0 {
		t.Fatalf("latency p99 = %g, want > 0 after a completed run", q)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet_shards 2", "fleet_latency_ms", "phase_wall_seconds_total"} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}

	var prom bytes.Buffer
	tele.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "fleet_events_total") {
		t.Fatalf("WritePrometheus snapshot missing fleet totals:\n%s", prom.String())
	}

	tele.Close() // stops the progress loop and flushes its final line
	if !strings.Contains(buf.String(), "progress[facade]:") {
		t.Fatalf("no progress line reached the writer: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "shards 2/2 done") {
		t.Fatalf("final progress line does not show completion: %q", buf.String())
	}
}
