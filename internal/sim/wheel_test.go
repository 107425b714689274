package sim

import (
	"testing"
	"time"
)

// tick returns the duration of n wheel ticks — the granularity at which the
// timing wheel files events into slots.
func tick(n int64) time.Duration { return time.Duration(n << wheelTickShift) }

// onWheel runs fn as the subtest name/wheel. These tests drive a whole
// simulator and assert explicit expected values; the container-level
// comparison with the heap reference is in oracle_test.go.
func onWheel(t *testing.T, name string, fn func(t *testing.T)) {
	t.Run(name+"/wheel", fn)
}

// TestWheelSameTickTies pins sub-tick ordering: many events inside one wheel
// tick (and several at the exact same instant) must fire in (At, seq) order
// even though the wheel's slot granularity cannot distinguish them.
func TestWheelSameTickTies(t *testing.T) {
	onWheel(t, "ties", func(t *testing.T) {
		s := New(1)
		base := tick(1000) + 3 // mid-tick origin
		var got []int
		// Three distinct instants inside one tick, each with two tied events.
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				id := i*2 + j
				s.ScheduleAt(base+time.Duration(i), func() { got = append(got, id) })
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for i, id := range got {
			if id != i {
				t.Fatalf("firing order %v, want ascending schedule order", got)
			}
		}
	})
}

// TestWheelCancelAtHead cancels the earliest pending event — for the wheel
// that is the next slot the cursor would visit — and checks the remaining
// events still fire in order.
func TestWheelCancelAtHead(t *testing.T) {
	onWheel(t, "cancel", func(t *testing.T) {
		s := New(1)
		var got []int
		head := s.Schedule(tick(1), func() { got = append(got, 0) })
		s.Schedule(tick(2), func() { got = append(got, 1) })
		s.Schedule(tick(2)+1, func() { got = append(got, 2) })
		s.Cancel(head)
		s.Cancel(head) // double-cancel is a no-op
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("got %v, want [1 2]", got)
		}
	})
}

// TestWheelPastTimeClamping schedules behind the clock mid-run; the event must
// clamp to now and fire before anything later, as a binary heap would.
func TestWheelPastTimeClamping(t *testing.T) {
	onWheel(t, "clamp", func(t *testing.T) {
		s := New(1)
		var got []string
		s.Schedule(tick(100), func() {
			got = append(got, "trigger")
			s.ScheduleAt(s.Now()-tick(50), func() { got = append(got, "clamped") })
		})
		s.Schedule(tick(100)+1, func() { got = append(got, "later") })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"trigger", "clamped", "later"}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
}

// TestWheelCascadeBoundaries places events at, just before and just after
// every level's cascade boundary (64^l ticks) plus the overflow horizon, and
// checks they fire in time order with the clock matching each At exactly.
func TestWheelCascadeBoundaries(t *testing.T) {
	onWheel(t, "cascade", func(t *testing.T) {
		s := New(1)
		var offsets []int64
		for l := 1; l <= wheelLevels; l++ {
			b := int64(1) << uint(l*wheelLevelBits)
			offsets = append(offsets, b-1, b, b+1)
		}
		var fired []time.Duration
		for _, off := range offsets {
			at := tick(off)
			s.ScheduleAt(at, func() {
				if s.Now() != at {
					t.Errorf("event for %v fired at %v", at, s.Now())
				}
				fired = append(fired, at)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != len(offsets) {
			t.Fatalf("fired %d events, want %d", len(fired), len(offsets))
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("out-of-order firing: %v after %v", fired[i], fired[i-1])
			}
		}
	})
}

// TestWheelOverflowRebase exercises the overflow heap: events beyond the
// 2^30-tick horizon (~4.9h) park in overflow, and once the wheel drains the
// cursor rebases onto them — including multiple rebase rounds and ties at the
// overflow minimum.
func TestWheelOverflowRebase(t *testing.T) {
	onWheel(t, "overflow", func(t *testing.T) {
		s := New(1)
		horizon := tick(1 << wheelSpanBits)
		ats := []time.Duration{
			tick(5), // near-term wheel event
			horizon + tick(3),
			horizon + tick(3), // tie at the first rebase target
			horizon + tick(4),
			3*horizon + 7, // second rebase round, mid-tick instant
		}
		var got []time.Duration
		for _, at := range ats {
			at := at
			s.ScheduleAt(at, func() {
				if s.Now() != at {
					t.Errorf("event for %v fired at %v", at, s.Now())
				}
				got = append(got, at)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ats) {
			t.Fatalf("fired %d events, want %d", len(got), len(ats))
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("out-of-order firing: %v after %v", got[i], got[i-1])
			}
		}
	})
}

// TestWheelRunUntilLeavesFutureEvents checks RunUntil's peek path: events past
// the deadline stay queued (wheel cursor does not run ahead) and fire on the
// next call.
func TestWheelRunUntilLeavesFutureEvents(t *testing.T) {
	onWheel(t, "rununtil", func(t *testing.T) {
		s := New(1)
		var got []int
		s.ScheduleAt(tick(10), func() { got = append(got, 0) })
		s.ScheduleAt(tick(1<<wheelLevelBits), func() { got = append(got, 1) }) // next level
		if err := s.RunUntil(tick(20)); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || s.Now() != tick(20) || s.Pending() != 1 {
			t.Fatalf("after RunUntil: got=%v now=%v pending=%d", got, s.Now(), s.Pending())
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[1] != 1 {
			t.Fatalf("got %v, want [0 1]", got)
		}
	})
}

// TestWheelTimerResetChurn re-arms one timer through cascade boundaries and
// across fires, mimicking the RTO-per-ACK pattern the wheel is built for.
func TestWheelTimerResetChurn(t *testing.T) {
	onWheel(t, "churn", func(t *testing.T) {
		s := New(1)
		fires := 0
		tm := s.NewTimer(func() { fires++ })
		delays := []time.Duration{tick(1), tick(100), tick(1 << wheelLevelBits), tick(1 << (2 * wheelLevelBits)), 5 * time.Millisecond}
		for _, d := range delays {
			tm.Reset(d) // each Reset replaces the previous arm
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if fires != 1 {
			t.Fatalf("timer fired %d times, want 1 (only the last Reset counts)", fires)
		}
		if s.Now() != 5*time.Millisecond {
			t.Fatalf("fired at %v, want 5ms", s.Now())
		}
		tm.Reset(tick(2))
		tm.Stop()
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if fires != 1 {
			t.Fatalf("stopped timer fired (fires=%d)", fires)
		}
	})
}

// TestTimerResetSteadyStateAllocs: wheel schedule/cancel is allocation-free
// in steady state. A Reset storm plus fire/re-arm cycles must not allocate
// once the event free list and the near heap are warm.
func TestTimerResetSteadyStateAllocs(t *testing.T) {
	s := New(1)
	fires := 0
	tm := s.NewTimer(func() { fires++ })
	rearm := func() {
		// Spread re-arms across levels like RTO backoff does.
		tm.Reset(tick(3))
		tm.Reset(tick(200))
		tm.Reset(tick(70))
		s.Step()
	}
	for i := 0; i < 64; i++ {
		rearm() // warm the event free list and the near heap
	}
	if avg := testing.AllocsPerRun(200, rearm); avg != 0 {
		t.Fatalf("timer Reset churn allocates %.1f times per cycle, want 0", avg)
	}
	if fires == 0 {
		t.Fatal("churn loop never fired the timer")
	}
}

// TestEmbeddedTimerCycleNoAllocs: a timer held by value costs its owner
// nothing beside itself. Once the event free list is warm, binding it, arming
// it, letting it fire and stopping it allocate nothing: no timer object, no
// cached method value, no closure over the owner.
func TestEmbeddedTimerCycleNoAllocs(t *testing.T) {
	type owner struct {
		fires int
		tm    Timer
	}
	s := New(1)
	o := new(owner)
	cycle := func() {
		o.tm = Timer{}
		o.tm.Init(s, func(a any) { a.(*owner).fires++ }, o)
		o.tm.Reset(tick(3))
		s.Step() // fires
		o.tm.Reset(tick(70))
		o.tm.Stop()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("embedded timer Init/Reset/fire/Stop cycle allocates %.1f times, want 0", avg)
	}
	if o.fires == 0 || s.Pending() != 0 {
		t.Fatalf("fires=%d pending=%d, want fires > 0 and nothing pending", o.fires, s.Pending())
	}
}

// TestWheelSlotCycleNoAllocs: a wheel slot is a list threaded through its
// events, so filing an event, unlinking it and emptying a slot allocate
// nothing, however many slots a run has touched. Each cycle files three
// events at every one of the five levels, cancels the middle one of each
// three, and fires the rest, which cascades them down through every level
// below their own; the cursor ends each cycle about 14 minutes on, so the
// cycles keep landing in slots they have not used before.
func TestWheelSlotCycleNoAllocs(t *testing.T) {
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	var mid [wheelLevels]*Event
	cycle := func() {
		for l := 0; l < wheelLevels; l++ {
			// 3·64^l ticks is filed at level l.
			d := tick(3 << (l * wheelLevelBits))
			s.Schedule(d, fn)
			mid[l] = s.Schedule(d+tick(1), fn)
			s.Schedule(d+tick(2), fn)
		}
		for _, ev := range mid {
			s.Cancel(ev)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the event free list and the near heap
	}
	levels := make(map[uint8]bool)
	for l := 0; l < wheelLevels; l++ {
		ev := s.Schedule(tick(3<<(l*wheelLevelBits)), fn)
		if ev.where == locSlot {
			levels[ev.level] = true
		}
		s.Cancel(ev)
	}
	if len(levels) != wheelLevels {
		t.Fatalf("the cycle's delays reach levels %v, want all %d", levels, wheelLevels)
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("wheel schedule/cancel/fire cycle allocates %.1f times, want 0", avg)
	}
	if want := 2 * wheelLevels * (8 + 101); fired != want || s.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d, want %d fired and nothing pending", fired, s.Pending(), want)
	}
}

// TestZeroTimerStopIsNoOp: owners stop their timers at teardown whether or
// not they were ever bound (a flow without a deadline never calls Init).
func TestZeroTimerStopIsNoOp(t *testing.T) {
	var tm Timer
	tm.Stop()
	if tm.Pending() {
		t.Fatal("zero Timer reports pending")
	}
}

// TestTimerFormsFireInScheduleOrder pins what arming a timer consumes: one
// sequence number, exactly as Schedule does, whichever way the timer was
// made. The same script runs with both timers built by plain Schedule/Cancel
// (the reference), both by NewTimer, and one by NewTimer beside one bound
// with Init; ties at one instant, plain events between them and re-arms of a
// pending timer must come out in the same order every time.
func TestTimerFormsFireInScheduleOrder(t *testing.T) {
	type armer interface {
		Reset(time.Duration)
		Stop()
	}
	run := func(make func(s *Simulator, fire func()) armer) []firing {
		s := New(7)
		var log []firing
		a := make(s, func() { log = append(log, firing{-1, s.Now()}) })
		b := make(s, func() { log = append(log, firing{-3, s.Now()}) })
		plain := func(id int, d time.Duration) {
			s.Schedule(d, func() { log = append(log, firing{id, s.Now()}) })
		}
		a.Reset(tick(5))
		plain(0, tick(5))
		b.Reset(tick(5))
		plain(1, tick(5))
		a.Reset(tick(5)) // re-armed while pending: now after b and both plain events
		s.Step()
		b.Reset(tick(9))
		a.Reset(tick(9))
		plain(2, tick(9))
		b.Stop()
		b.Reset(tick(9)) // stopped and armed again: a fresh sequence number
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	mixed := 0
	forms := map[string]func(*Simulator, func()) armer{
		"reference": func(s *Simulator, fire func()) armer { return &scheduleTimer{s: s, fire: fire} },
		"NewTimer":  func(s *Simulator, fire func()) armer { return s.NewTimer(fire) },
		"NewTimer+Init": func(s *Simulator, fire func()) armer {
			if mixed++; mixed%2 == 1 {
				return s.NewTimer(fire)
			}
			tm := new(Timer)
			tm.Init(s, func(f any) { f.(func())() }, fire)
			return tm
		},
	}
	want := run(forms["reference"])
	if len(want) != 5 {
		t.Fatalf("reference fired %d entries, want 5: %+v", len(want), want)
	}
	for name, form := range forms {
		got := run(form)
		if len(got) != len(want) {
			t.Fatalf("%s fired %d entries, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s diverges at entry %d: %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
}

// scheduleTimer is the reference for TestTimerFormsFireInScheduleOrder: a
// restartable timer made of nothing but Schedule and Cancel.
type scheduleTimer struct {
	s    *Simulator
	ev   *Event
	fire func()
}

func (r *scheduleTimer) Reset(d time.Duration) {
	r.Stop()
	r.ev = r.s.Schedule(d, func() { r.ev = nil; r.fire() })
}

func (r *scheduleTimer) Stop() {
	r.s.Cancel(r.ev)
	r.ev = nil
}

type firing struct {
	id int
	at time.Duration
}
