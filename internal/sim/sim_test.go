package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock should end at the last event, got %v", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	_ = s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must fire in scheduling order, got %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.Schedule(time.Second, func() { fired = true })
	s.Cancel(ev)
	_ = s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	fired := 0
	s.Schedule(time.Second, func() { fired++ })
	s.Schedule(3*time.Second, func() { fired++ })
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || s.Now() != 2*time.Second {
		t.Fatalf("fired=%d now=%v", fired, s.Now())
	}
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 2 || s.Now() != 4*time.Second {
		t.Fatalf("after RunFor: fired=%d now=%v", fired, s.Now())
	}
}

func TestTimerResetAndStop(t *testing.T) {
	s := New(1)
	count := 0
	timer := s.NewTimer(func() { count++ })
	timer.Reset(10 * time.Millisecond)
	timer.Reset(50 * time.Millisecond) // supersedes the first arming
	_ = s.RunUntil(20 * time.Millisecond)
	if count != 0 {
		t.Fatal("timer fired at the superseded time")
	}
	_ = s.RunUntil(60 * time.Millisecond)
	if count != 1 {
		t.Fatalf("timer should have fired exactly once, got %d", count)
	}
	timer.Reset(10 * time.Millisecond)
	timer.Stop()
	_ = s.RunUntil(time.Second)
	if count != 1 {
		t.Fatal("stopped timer fired")
	}
	if timer.Pending() {
		t.Fatal("stopped timer reports pending")
	}
}

func TestSchedulingInsideEvents(t *testing.T) {
	s := New(1)
	var times []time.Duration
	s.Schedule(time.Millisecond, func() {
		times = append(times, s.Now())
		s.Schedule(time.Millisecond, func() { times = append(times, s.Now()) })
	})
	_ = s.Run()
	if len(times) != 2 || times[1] != 2*time.Millisecond {
		t.Fatalf("nested scheduling broken: %v", times)
	}
}

func TestDeterministicRNG(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same sequence")
		}
	}
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	s := New(1)
	s.MaxEvents = 100
	var loop func()
	loop = func() { s.Schedule(time.Millisecond, loop) }
	s.Schedule(time.Millisecond, loop)
	if err := s.RunUntil(time.Hour); err == nil {
		t.Fatal("expected MaxEvents to abort a runaway simulation")
	}
}

func TestLocalIsPerSimulatorAndPerType(t *testing.T) {
	type a struct{ n int }
	type b struct{ n int }
	s1, s2 := New(1), New(1)
	x := Local[a](s1)
	x.n = 7
	if Local[a](s1) != x {
		t.Fatal("Local returned a different value for the same simulator and type")
	}
	if Local[a](s2) == x || Local[a](s2).n != 0 {
		t.Fatal("Local shared a value between two simulators")
	}
	if Local[b](s1).n != 0 {
		t.Fatal("Local shared a value between two types")
	}
}
