package trace

import (
	"testing"
	"time"
)

func TestMeterRates(t *testing.T) {
	m := NewMeter(0)
	m.Add(1_000_000, time.Second)
	if got := m.RateMbps(time.Second); got < 7.9 || got > 8.1 {
		t.Fatalf("RateMbps = %v, want ~8", got)
	}
	m.Mark(time.Second)
	m.Add(500_000, 2*time.Second)
	if got := m.RateSinceMarkMbps(2 * time.Second); got < 3.9 || got > 4.1 {
		t.Fatalf("RateSinceMarkMbps = %v, want ~4", got)
	}
	if m.Total() != 1_500_000 {
		t.Fatalf("Total = %d", m.Total())
	}
}

func TestSampleStats(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if Mean(xs) != 50.5 || Max(xs) != 100 {
		t.Fatalf("sample stats wrong: mean=%v max=%v", Mean(xs), Max(xs))
	}
	if p := Percentile(xs, 95); p != 95 {
		t.Fatalf("p95 = %v", p)
	}
	if xs[0] != 100 {
		t.Fatal("Percentile must not reorder its input")
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Fatal("empty samples must report zeros")
	}
}

func TestHistogramPDF(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 60; i++ {
		h.Add(5) // bin 0
	}
	for i := 0; i < 40; i++ {
		h.Add(25) // bin 2
	}
	pdf := h.PDF()
	if len(pdf) != 2 {
		t.Fatalf("expected 2 bins, got %d", len(pdf))
	}
	if pdf[0].Low != 0 || pdf[0].Fraction != 0.6 {
		t.Fatalf("bin0 = %+v", pdf[0])
	}
	if pdf[1].Low != 20 || pdf[1].Fraction != 0.4 {
		t.Fatalf("bin1 = %+v", pdf[1])
	}
	if h.Total() != 100 || h.Min() != 5 || h.Max() != 25 {
		t.Fatalf("histogram aggregates wrong: %d %v %v", h.Total(), h.Min(), h.Max())
	}
	// Bin-centre approximation: 0.6·5 + 0.4·25 = 13.
	if mean := h.Mean(); mean < 12.5 || mean > 13.5 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestFormatBytes(t *testing.T) {
	if FormatBytes(512) != "512B" || FormatBytes(2048) != "2KB" || FormatBytes(3<<20) != "3.0MB" {
		t.Fatalf("unexpected formats: %s %s %s", FormatBytes(512), FormatBytes(2048), FormatBytes(3<<20))
	}
}
