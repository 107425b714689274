package experiments

import (
	"bytes"
	"math"
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
			Config:      cfg,
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

// TestRunBulkRejectsOutOfRangeIndices: a variant that names an interface or
// a path the topology lacks is an error naming the index, not a run measured
// on another path.
func TestRunBulkRejectsOutOfRangeIndices(t *testing.T) {
	cases := []struct {
		name string
		opt  BulkOptions
		want string
	}{
		{"client interface", BulkOptions{ClientIface: 2}, "client interface 2 out of range"},
		{"box index", BulkOptions{Boxes: map[int][]netem.Box{5: nil}}, "box index 5 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.Specs = netem.WiFi3GSpec()
			tc.opt.Config = tcpBaseline(64 << 10)
			tc.opt.Duration = time.Second
			_, err := RunBulk(tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunBulk error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestFig7SummaryIsOrderStatistics: fig7's summary row is exact statistics
// over the block delays, so p50 <= p95 <= max and mean <= max hold in every
// row, and each PDF table's fractions add up to 100% within their rounding.
func TestFig7SummaryIsOrderStatistics(t *testing.T) {
	res, err := runFig7(Options{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %q: %v", row[0], err)
		}
		return v
	}
	summary := res.Tables[0]
	if len(summary.Rows) != 4 || len(res.Tables) != 5 {
		t.Fatalf("fig7 should print 4 summary rows and 4 PDFs, got %d rows and %d tables", len(summary.Rows), len(res.Tables))
	}
	for _, row := range summary.Rows {
		mean, p50, p95, max := cell(row, 1), cell(row, 2), cell(row, 3), cell(row, 4)
		if p50 > p95 || p95 > max || mean > max {
			t.Errorf("%s: mean %v, p50 %v, p95 %v, max %v are not statistics of one sample", row[0], mean, p50, p95, max)
		}
	}
	for _, pdf := range res.Tables[1:] {
		var sum float64
		for _, row := range pdf.Rows {
			sum += cell(row, 1)
		}
		// Each fraction is printed to 0.1%, so each is off by at most 0.05.
		if slack := 0.05 * float64(len(pdf.Rows)); math.Abs(sum-100) > slack {
			t.Errorf("%s: fractions sum to %.1f%%, want 100 ± %.2f", pdf.Title, sum, slack)
		}
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
	// ablation must get stuck after the silent path failure, and its client
	// connection must say so with exactly one stall episode.
	const total = 1 << 20
	recvShared, shared, err := runWindowScenario(11, false, total, 30*time.Second, Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	recvPer, per, err := runWindowScenario(11, true, total, 30*time.Second, Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if recvShared < total {
		t.Fatalf("shared-window transfer did not complete (%d bytes)", recvShared)
	}
	if recvPer >= total {
		t.Fatalf("per-subflow-window transfer unexpectedly completed (%d bytes) — the §3.3.1 deadlock should occur", recvPer)
	}
	if shared.StallEpisodes != 0 || per.StallEpisodes != 1 {
		t.Fatalf("stall episodes: shared window %d, per-subflow windows %d; want 0 and 1", shared.StallEpisodes, per.StallEpisodes)
	}
}
