package cc

import (
	"testing"
	"time"
)

func TestNewRenoSlowStartAndCA(t *testing.T) {
	c := NewNewReno(Config{MSS: 1000, InitialCwndSegments: 2})
	if c.Cwnd() != 2000 {
		t.Fatalf("initial cwnd = %d", c.Cwnd())
	}
	if !c.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	// Slow start: cwnd grows by the acknowledged amount.
	c.OnAck(2000, 10*time.Millisecond)
	if c.Cwnd() != 4000 {
		t.Fatalf("slow-start growth wrong: %d", c.Cwnd())
	}
	c.OnFastRetransmit()
	if c.Cwnd() != 2000 || c.Ssthresh() != 2000 {
		t.Fatalf("after fast retransmit cwnd=%d ssthresh=%d", c.Cwnd(), c.Ssthresh())
	}
	if c.InSlowStart() {
		t.Fatal("should be in congestion avoidance after loss")
	}
	// Congestion avoidance: one MSS per cwnd of acked data.
	acked := 0
	before := c.Cwnd()
	for acked < before {
		c.OnAck(1000, 10*time.Millisecond)
		acked += 1000
	}
	if c.Cwnd() != before+1000 {
		t.Fatalf("CA growth: got %d want %d", c.Cwnd(), before+1000)
	}
}

func TestNewRenoTimeoutAndFloor(t *testing.T) {
	c := NewNewReno(Config{MSS: 1000})
	c.OnTimeout()
	if c.Cwnd() != 1000 {
		t.Fatalf("cwnd after timeout = %d, want 1 MSS", c.Cwnd())
	}
	c.ForceReduce()
	c.ForceReduce()
	if c.Cwnd() < 2000 {
		// ForceReduce floors at MinCwndSegments (2).
		t.Fatalf("ForceReduce must not go below 2 MSS, got %d", c.Cwnd())
	}
}

func TestNewRenoCap(t *testing.T) {
	c := NewNewReno(Config{MSS: 1000, InitialCwndSegments: 10})
	c.SetCwndCap(5000)
	if c.Cwnd() != 5000 {
		t.Fatalf("cap not applied: %d", c.Cwnd())
	}
	c.OnAck(5000, time.Millisecond)
	if c.Cwnd() > 5000 {
		t.Fatalf("cwnd grew past the cap: %d", c.Cwnd())
	}
	c.SetCwndCap(0)
	c.OnAck(5000, time.Millisecond)
	if c.Cwnd() <= 5000 {
		t.Fatal("removing the cap must allow growth again")
	}
}

func TestCoupledGroupAlphaAndIncrease(t *testing.T) {
	g := NewCoupledGroup()
	a := g.NewController(Config{MSS: 1000, InitialCwndSegments: 10})
	b := g.NewController(Config{MSS: 1000, InitialCwndSegments: 10})
	if g.TotalCwnd() != 20000 {
		t.Fatalf("total cwnd = %d", g.TotalCwnd())
	}
	// Leave slow start.
	a.OnFastRetransmit()
	b.OnFastRetransmit()

	// Feed RTT samples: subflow a is fast, subflow b is slow.
	a.OnAck(1000, 10*time.Millisecond)
	b.OnAck(1000, 500*time.Millisecond)

	beforeA, beforeB := a.Cwnd(), b.Cwnd()
	for i := 0; i < 100; i++ {
		a.OnAck(1000, 10*time.Millisecond)
		b.OnAck(1000, 500*time.Millisecond)
	}
	growthA := a.Cwnd() - beforeA
	growthB := b.Cwnd() - beforeB
	// The coupled increase is capped by the uncoupled (per-subflow) increase,
	// so neither grows faster than standard TCP would, and the aggregate
	// increase is bounded.
	if growthA <= 0 {
		t.Fatal("fast subflow should still grow")
	}
	uncoupledBound := 100 * 1000 * 1000 / beforeA // acked*MSS/cwnd per ack, summed
	if growthA > uncoupledBound+1000 {
		t.Fatalf("coupled growth (%d) exceeds the uncoupled bound (%d)", growthA, uncoupledBound)
	}
	_ = growthB

	// Removing a member shrinks the group.
	g.Remove(b)
	if g.TotalCwnd() != a.Cwnd() {
		t.Fatal("Remove did not detach the controller")
	}
}

func TestCoupledReductionsAndCap(t *testing.T) {
	g := NewCoupledGroup()
	c := g.NewController(Config{MSS: 1000})
	c.OnAck(20000, 50*time.Millisecond)
	before := c.Cwnd()
	c.ForceReduce()
	if c.Cwnd() >= before || c.Ssthresh() != c.Cwnd() {
		t.Fatalf("ForceReduce: cwnd=%d ssthresh=%d before=%d", c.Cwnd(), c.Ssthresh(), before)
	}
	c.OnTimeout()
	if c.Cwnd() != 1000 {
		t.Fatalf("timeout should reset cwnd to 1 MSS, got %d", c.Cwnd())
	}
	c.SetCwndCap(3000)
	for i := 0; i < 50; i++ {
		c.OnAck(3000, 50*time.Millisecond)
	}
	if c.Cwnd() > 3000 {
		t.Fatalf("cap violated: %d", c.Cwnd())
	}
}

// TestCoupledGroupHeldByValue: a connection holds its group by value and each
// subflow its controller, so the zero group must work, Add must initialise a
// controller in place exactly as NewController builds one, and membership
// must survive outgrowing the group's inline member array.
func TestCoupledGroupHeldByValue(t *testing.T) {
	var g CoupledGroup
	held := make([]Coupled, 2*len(g.membersBuf)+1)
	for i := range held {
		held[i].cwnd = 12345 // Add overwrites whatever was there
		g.Add(&held[i], Config{MSS: 1000})
	}
	fresh := NewCoupledGroup().NewController(Config{MSS: 1000})
	if held[0].Cwnd() != fresh.Cwnd() || held[0].Ssthresh() != fresh.Ssthresh() || held[0].SRTT() != fresh.SRTT() {
		t.Fatalf("Add initialised %+v, NewController builds %+v", held[0], *fresh)
	}
	if want := len(held) * fresh.Cwnd(); g.TotalCwnd() != want {
		t.Fatalf("total cwnd %d over %d members, want %d", g.TotalCwnd(), len(held), want)
	}
	g.Remove(&held[1])
	g.Remove(&held[len(held)-1])
	g.Remove(fresh) // never a member: a no-op
	if want := (len(held) - 2) * fresh.Cwnd(); g.TotalCwnd() != want {
		t.Fatalf("total cwnd %d after removing two members, want %d", g.TotalCwnd(), want)
	}
	held[0].OnAck(1000, 10*time.Millisecond)
	if g.TotalCwnd() != (len(held)-2)*fresh.Cwnd()+1000 {
		t.Fatalf("a held controller's growth does not show in its group: total %d", g.TotalCwnd())
	}
}
