package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
)

func TestRegistryHasEveryPaperFigure(t *testing.T) {
	want := []string{"fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9", "fig10", "fig11", "mbox", "rationale"}
	ids := IDs()
	have := make(map[string]bool)
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q is not registered", id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "a", "bb")
	tbl.AddRow("1", "2")
	tbl.AddNote("note %d", 7)
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "1", "2", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment id must error")
	}
}

func TestRunBulkTCPvsMPTCPOrdering(t *testing.T) {
	// Integration sanity check used by several figures: on WiFi+3G with a
	// generous buffer, MPTCP+M1,2 goodput must at least match TCP over the
	// best single path, and TCP over 3G must be the slowest.
	duration, warmup := 35*time.Second, 15*time.Second
	run := func(cfg core.Config, iface int) float64 {
		res, err := RunBulk(BulkOptions{
			Seed:        3,
			Specs:       netem.WiFi3GSpec(),
			Client:      cfg,
			Server:      cfg,
			ClientIface: iface,
			Duration:    duration,
			Warmup:      warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GoodputMbps
	}
	buf := 600 << 10
	tcpWifi := run(tcpBaseline(buf), 0)
	tcp3G := run(tcpBaseline(buf), 1)
	mptcp := run(mptcpM12(buf), 0)

	if tcpWifi < 6.5 || tcpWifi > 8.2 {
		t.Fatalf("TCP over WiFi goodput %.2f Mbps outside the expected 6.5-8.2 band", tcpWifi)
	}
	if tcp3G > 2.2 {
		t.Fatalf("TCP over 3G goodput %.2f Mbps exceeds its 2 Mbps link", tcp3G)
	}
	if mptcp < tcpWifi-1.0 {
		t.Fatalf("MPTCP+M1,2 (%.2f Mbps) must not fall notably below TCP on the best path (%.2f Mbps)", mptcp, tcpWifi)
	}
	if mptcp > 10.5 {
		t.Fatalf("MPTCP goodput %.2f Mbps exceeds the physical aggregate", mptcp)
	}
}

// TestFig10KeyGenerationOrdering asserts the paper's ordering, TCP < MPTCP <
// MPTCP-100 < MPTCP-1000, on the counted SYN work: each row does at least the
// previous row's work in every count and strictly more in one.
func TestFig10KeyGenerationOrdering(t *testing.T) {
	res, err := runFig10(Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("fig10 should produce a 4-row summary, got %+v", res.Tables)
	}
	counts := make([][3]float64, len(rows))
	for i, row := range rows {
		for j := range counts[i] {
			v, err := strconv.ParseFloat(row[1+j], 64)
			if err != nil {
				t.Fatalf("row %q: %v", row[0], err)
			}
			counts[i][j] = v
		}
	}
	for i := 1; i < len(counts); i++ {
		more := false
		for j := range counts[i] {
			if counts[i][j] < counts[i-1][j] {
				t.Fatalf("%s does less work than %s: %v vs %v", rows[i][0], rows[i-1][0], counts[i], counts[i-1])
			}
			more = more || counts[i][j] > counts[i-1][j]
		}
		if !more {
			t.Fatalf("%s does no more work than %s: %v", rows[i][0], rows[i-1][0], counts[i])
		}
	}
}

func TestRationaleShowsDeadlockDifference(t *testing.T) {
	// The shared-window design must deliver everything; the per-subflow
	// ablation must get stuck after the silent path failure.
	recvShared, okShared, err := runWindowScenario(11, false, 1<<20, 30*time.Second, Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	recvPer, okPer, err := runWindowScenario(11, true, 1<<20, 30*time.Second, Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !okShared {
		t.Fatalf("shared-window transfer did not complete (%d bytes)", recvShared)
	}
	if okPer {
		t.Fatalf("per-subflow-window transfer unexpectedly completed (%d bytes) — the §3.3.1 deadlock should occur", recvPer)
	}
}
