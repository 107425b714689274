package mptcpgo

import (
	"math"
	"strings"
	"testing"
)

// TestOpenLoopRateKeepsFamily pins the builder contract: Rate re-parameterizes
// the arrival family chosen by Arrival instead of silently switching to
// Poisson.
func TestOpenLoopRateKeepsFamily(t *testing.T) {
	o := NewOpenLoop(1).Arrival("onoff:100,900", 50).Rate(80)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if name := o.spec.Arrival.Name(); !strings.HasPrefix(name, "onoff") {
		t.Fatalf("Rate switched the arrival family to %s", name)
	}
	if got := o.spec.Arrival.Rate(); math.Abs(got-80) > 1e-9 {
		t.Fatalf("Rate(80) set mean rate %g", got)
	}

	// Without a prior Arrival call, Rate selects Poisson.
	p := NewOpenLoop(1).Rate(40)
	if name := p.spec.Arrival.Name(); !strings.HasPrefix(name, "poisson") {
		t.Fatalf("default Rate family is %s, want poisson", name)
	}

	// A bad spec is reported by Run, not swallowed.
	if _, err := NewOpenLoop(1).SizeDist("nope").Run(); err == nil {
		t.Fatal("Run accepted a bad size-dist spec")
	}
}

// TestSharedBottleneckRejectsBadWeight: the facade passes host weights
// through to the runner, which refuses one that is not positive and finite
// and names the host.
func TestSharedBottleneckRejectsBadWeight(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		weight := func(i int) float64 {
			if i == 3 {
				return w
			}
			return 1
		}
		_, err := NewOpenLoop(1).Hosts(8).Shards(2).SharedBottleneck("core", 10, weight).Run()
		if err == nil || !strings.Contains(err.Error(), "member 3:") {
			t.Errorf("weight %v: err = %v, want one naming member 3", w, err)
		}
	}
}
