package mptcpgo

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTelemetryFacade drives the public observability surface end to end: a
// plane attached to one open-loop run through the builder, then read back
// through its Prometheus snapshot.
func TestTelemetryFacade(t *testing.T) {
	tele := NewTelemetry("facade")
	defer tele.Close()

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

	// Each shard adds its events once, so the snapshot's total is the all
	// row's events cell.
	table := res.Tables[0]
	all := table.Rows[len(table.Rows)-1]
	events := ""
	for i, col := range table.Columns {
		if col == "events" {
			events = all[i]
		}
	}
	if all[0] != "all" || events == "" {
		t.Fatalf("no all row with an events cell: %v %v", table.Columns, all)
	}
	var prom bytes.Buffer
	tele.WritePrometheus(&prom)
	for _, want := range []string{"fleet_events_total " + events + "\n", "phase_wall_seconds_total"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("WritePrometheus snapshot missing %q:\n%s", want, prom.String())
		}
	}
}
