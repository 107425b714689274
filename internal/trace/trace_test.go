package trace

import "testing"

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
	if h.Total() != 100 || h.Max() != 25 {
		t.Fatalf("histogram aggregates wrong: %d %v", h.Total(), h.Max())
	}
	// Bin-centre approximation: 0.6·5 + 0.4·25 = 13.
	if mean := h.Mean(); mean < 12.5 || mean > 13.5 {
		t.Fatalf("mean = %v", mean)
	}
}
