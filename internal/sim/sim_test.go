package sim

import (
	"strings"
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

// TestClosedSimulatorPanics: once closed, a simulator refuses to schedule,
// to step, to run and to hand out Local values, each with a message that
// names the call; closing it again does nothing.
func TestClosedSimulatorPanics(t *testing.T) {
	s := New(1)
	timer := s.NewTimer(func() {})
	s.Schedule(time.Second, func() { t.Error("an event of a closed simulator ran") })
	s.Close()
	s.Close()
	if !s.Closed() {
		t.Fatal("Closed() is false after Close")
	}
	for _, tc := range []struct {
		call string
		fn   func()
	}{
		{"Schedule", func() { s.Schedule(0, func() {}) }},
		{"ScheduleAt", func() { s.ScheduleAt(0, func() {}) }},
		{"ScheduleArgsAtSeq", func() { s.ScheduleArgsAtSeq(0, s.ReserveSeq(), func(_, _ any) {}, nil, nil) }},
		{"Timer.Reset", func() { timer.Reset(time.Millisecond) }},
		{"Step", func() { s.Step() }},
		{"Run", func() { _ = s.Run() }},
		{"RunUntil", func() { _ = s.RunUntil(time.Hour) }},
		{"RunFor", func() { _ = s.RunFor(time.Hour) }},
		{"Local", func() { Local[int](s) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "on a closed simulator") {
					t.Errorf("%s on a closed simulator: recovered %q, want a panic naming the closed simulator", tc.call, msg)
				}
			}()
			tc.fn()
		}()
	}
}

// stashed is a Local value that may serve the next simulator.
type stashed struct {
	n       int
	retired int
}

func (v *stashed) Retire() { v.retired++ }

// TestCloseHandsRetirersToTheNextSimulator: Close retires a Retirer value
// and the next New takes it as its own; other values die with their
// simulator; the stash keeps at most stashCap sets.
func TestCloseHandsRetirersToTheNextSimulator(t *testing.T) {
	s := New(1)
	v := Local[stashed](s)
	v.n = 7
	*Local[int](s) = 7
	s.Close()
	if v.retired != 1 {
		t.Fatalf("Close retired the value %d times; want once", v.retired)
	}
	next := New(2)
	if got := Local[stashed](next); got != v || got.n != 7 {
		t.Fatalf("the next simulator got %p (n=%d); want the closed one's %p", got, got.n, v)
	}
	if n := *Local[int](next); n != 0 {
		t.Fatalf("a value that is no Retirer crossed to the next simulator (%d)", n)
	}

	// Overfill the stash, then take everything back: stashCap sets return.
	sims := make([]*Simulator, stashCap+3)
	for i := range sims {
		sims[i] = New(uint64(i))
		Local[stashed](sims[i]).n = 100 + i
	}
	for _, s := range sims {
		s.Close()
	}
	warm := 0
	for i := 0; i < stashCap+3; i++ {
		if Local[stashed](New(uint64(i))).n != 0 {
			warm++
		}
	}
	if warm != stashCap {
		t.Fatalf("%d simulators got a stashed value; want stashCap = %d", warm, stashCap)
	}
}

// TestNextSeqDividesBeforeFromAfter: an event scheduled before NextSeq was
// read runs with a smaller RunningSeq than any scheduled after it, whatever
// their firing order; reading NextSeq takes no number.
func TestNextSeqDividesBeforeFromAfter(t *testing.T) {
	s := New(1)
	var early, late []uint64
	s.ScheduleAt(30*time.Millisecond, func() { early = append(early, s.RunningSeq()) })
	mark := s.NextSeq()
	if s.NextSeq() != mark {
		t.Fatal("NextSeq took a number")
	}
	s.ScheduleAt(10*time.Millisecond, func() { late = append(late, s.RunningSeq()) })
	s.ScheduleArgsAtSeq(20*time.Millisecond, s.ReserveSeq(), func(_, _ any) { late = append(late, s.RunningSeq()) }, nil, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(early) != 1 || early[0] >= mark {
		t.Errorf("event scheduled before the mark ran at seq %v; want below %d", early, mark)
	}
	if len(late) != 2 || late[0] < mark || late[1] < mark {
		t.Errorf("events scheduled after the mark ran at seqs %v; want at least %d", late, mark)
	}
}
