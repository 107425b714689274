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
