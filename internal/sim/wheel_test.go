package sim

import (
	"testing"
	"time"
)

// tick returns the duration of n wheel ticks — the granularity at which the
// timing wheel files events into slots.
func tick(n int64) time.Duration { return time.Duration(n << wheelTickShift) }

func bothSchedulers(t *testing.T, name string, fn func(t *testing.T, kind SchedulerKind)) {
	t.Run(name+"/wheel", func(t *testing.T) { fn(t, SchedulerWheel) })
	t.Run(name+"/heap", func(t *testing.T) { fn(t, SchedulerHeap) })
}

// TestWheelSameTickTies pins sub-tick ordering: many events inside one wheel
// tick (and several at the exact same instant) must fire in (At, seq) order
// even though the wheel's slot granularity cannot distinguish them.
func TestWheelSameTickTies(t *testing.T) {
	bothSchedulers(t, "ties", func(t *testing.T, kind SchedulerKind) {
		s := NewWithScheduler(1, kind)
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
	bothSchedulers(t, "cancel", func(t *testing.T, kind SchedulerKind) {
		s := NewWithScheduler(1, kind)
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
// clamp to now and fire before anything later, like the heap always did.
func TestWheelPastTimeClamping(t *testing.T) {
	bothSchedulers(t, "clamp", func(t *testing.T, kind SchedulerKind) {
		s := NewWithScheduler(1, kind)
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
	bothSchedulers(t, "cascade", func(t *testing.T, kind SchedulerKind) {
		s := NewWithScheduler(1, kind)
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
	bothSchedulers(t, "overflow", func(t *testing.T, kind SchedulerKind) {
		s := NewWithScheduler(1, kind)
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
	bothSchedulers(t, "rununtil", func(t *testing.T, kind SchedulerKind) {
		s := NewWithScheduler(1, kind)
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
	bothSchedulers(t, "churn", func(t *testing.T, kind SchedulerKind) {
		s := NewWithScheduler(1, kind)
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

// TestTimerResetSteadyStateAllocs guards the acceptance criterion that wheel
// schedule/cancel is allocation-free in steady state: a Reset storm plus
// fire/re-arm cycles must not allocate once slot slices and the event free
// list are warm.
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
		rearm() // warm slot slices, free list and the near heap
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

// schedOp is one action in a differential scheduler script; see runSchedScript.
type schedOp struct {
	kind  uint8 // 0 schedule, 1 cancel, 2 step, 3 runUntil, 4 timerReset, 5 timerStop, 6 reserveSchedule
	delay uint8 // index into schedDelays
	pick  uint8 // which pending event / timer the op targets
}

// schedDelays spans every interesting placement: sub-tick, same-tick, the
// cascade boundary of each level, and past the overflow horizon.
var schedDelays = []time.Duration{
	0, 1, tick(1) - 1, tick(1), tick(1) + 1,
	tick(1<<wheelLevelBits) - 1, tick(1 << wheelLevelBits), tick(1<<wheelLevelBits) + 1,
	tick(1 << (2 * wheelLevelBits)), tick(1 << (3 * wheelLevelBits)), tick(1 << (4 * wheelLevelBits)),
	tick(1 << wheelSpanBits), tick(1<<wheelSpanBits) + tick(3),
}

type firing struct {
	id int
	at time.Duration
}

// runSchedScript executes one op script on a fresh simulator with the given
// scheduler and returns the complete firing log. Both schedulers must produce
// identical logs for every script — that is the equivalence contract.
func runSchedScript(kind SchedulerKind, ops []schedOp) []firing {
	s := NewWithScheduler(7, kind)
	var log []firing
	var pending []*Event
	nextID := 0
	schedule := func(d time.Duration, viaReserve bool) {
		id := nextID
		nextID++
		at := s.Now() + d
		if viaReserve {
			seq := s.ReserveSeq()
			pending = append(pending, s.ScheduleArgsAtSeq(at, seq, func(a, _ any) {
				log = append(log, firing{a.(int), s.Now()})
			}, id, nil))
		} else {
			pending = append(pending, s.ScheduleAt(at, func() {
				log = append(log, firing{id, s.Now()})
			}))
		}
	}
	// Two timers, one of each form (pick selects): a NewTimer and one held by
	// value and bound with Init, as the protocol structs hold theirs.
	var held Timer
	held.Init(s, func(any) { log = append(log, firing{-3, s.Now()}) }, nil)
	tms := [2]*Timer{s.NewTimer(func() { log = append(log, firing{-1, s.Now()}) }), &held}
	for _, op := range ops {
		d := schedDelays[int(op.delay)%len(schedDelays)]
		switch op.kind % 7 {
		case 0:
			schedule(d, false)
		case 1:
			if len(pending) > 0 {
				s.Cancel(pending[int(op.pick)%len(pending)])
			}
		case 2:
			s.Step()
		case 3:
			if err := s.RunUntil(s.Now() + d); err != nil {
				panic(err)
			}
		case 4:
			tms[op.pick%2].Reset(d)
		case 5:
			tms[op.pick%2].Stop()
		case 6:
			schedule(d, true)
		}
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	log = append(log, firing{-2, s.Now()}) // final clock is part of the contract
	return log
}

func diffSchedLogs(t *testing.T, ops []schedOp) {
	t.Helper()
	h := runSchedScript(SchedulerHeap, ops)
	w := runSchedScript(SchedulerWheel, ops)
	if len(h) != len(w) {
		t.Fatalf("heap fired %d entries, wheel %d", len(h), len(w))
	}
	for i := range h {
		if h[i] != w[i] {
			t.Fatalf("divergence at entry %d: heap %+v, wheel %+v", i, h[i], w[i])
		}
	}
}

// TestSchedulerEquivalenceHandBuilt runs curated scripts over both schedulers:
// the edge cases the fuzzer would have to rediscover every run.
func TestSchedulerEquivalenceHandBuilt(t *testing.T) {
	scripts := map[string][]schedOp{
		"same-tick-ties": {
			{0, 3, 0}, {0, 3, 0}, {0, 4, 0}, {0, 2, 0}, {2, 0, 0},
		},
		"cancel-at-head": {
			{0, 1, 0}, {0, 3, 0}, {0, 5, 0}, {1, 0, 0}, {2, 0, 0}, {1, 0, 1},
		},
		"past-clamp-after-advance": {
			{0, 8, 0}, {3, 6, 0}, {0, 0, 0}, {0, 1, 0},
		},
		"cascade-walk": {
			{0, 5, 0}, {0, 6, 0}, {0, 7, 0}, {0, 8, 0}, {0, 9, 0}, {0, 10, 0},
			{3, 8, 0}, {0, 2, 0}, {1, 0, 2},
		},
		"overflow-rebase": {
			{0, 11, 0}, {0, 12, 0}, {0, 1, 0}, {2, 0, 0}, {0, 11, 0}, {1, 0, 1},
		},
		"timer-churn": {
			{4, 2, 0}, {4, 6, 0}, {2, 0, 0}, {4, 1, 0}, {5, 0, 0}, {4, 3, 0}, {3, 7, 0},
		},
		"timer-forms-interleave": {
			{4, 3, 0}, {4, 3, 1}, {0, 3, 0}, {4, 3, 0}, {2, 0, 0}, {4, 6, 1}, {5, 0, 0}, {4, 2, 0}, {3, 7, 0},
		},
		"reserved-seq-interleave": {
			{6, 2, 0}, {0, 2, 0}, {6, 2, 0}, {0, 3, 0}, {2, 0, 0}, {6, 1, 0},
		},
	}
	for name, ops := range scripts {
		t.Run(name, func(t *testing.T) { diffSchedLogs(t, ops) })
	}
}

// FuzzSchedulerEquivalence drives the heap and wheel schedulers with the same
// randomized schedule/cancel/step/Reset script and requires bit-identical
// firing logs. Any wheel bug that reorders, drops or double-fires an event
// shows up as a divergence from the heap reference.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 3, 1, 2, 0, 0})
	f.Add([]byte{0, 11, 0, 0, 12, 0, 2, 0, 0, 1, 0, 1})
	f.Add([]byte{4, 2, 0, 4, 6, 0, 2, 0, 0, 6, 1, 0, 3, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512] // bound script length, not coverage
		}
		ops := make([]schedOp, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			ops = append(ops, schedOp{data[i], data[i+1], data[i+2]})
		}
		diffSchedLogs(t, ops)
	})
}

func benchScheduleCancel(b *testing.B, kind SchedulerKind) {
	s := NewWithScheduler(1, kind)
	fn := func() {}
	// A resident population gives the heap its realistic O(log n) depth and
	// the wheel a spread of occupied slots.
	const resident = 4096
	evs := make([]*Event, resident)
	for i := range evs {
		evs[i] = s.Schedule(time.Duration(i%librarySpread)*tick(1)+tick(2), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % resident
		s.Cancel(evs[j])
		evs[j] = s.Schedule(time.Duration(j%librarySpread)*tick(1)+tick(2), fn)
	}
}

// librarySpread spreads benchmark events over ~3 wheel levels.
const librarySpread = 3000

// BenchmarkScheduleCancel measures the schedule+cancel round trip that
// dominates timer-heavy steady state, wheel vs heap.
func BenchmarkScheduleCancel(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchScheduleCancel(b, SchedulerWheel) })
	b.Run("heap", func(b *testing.B) { benchScheduleCancel(b, SchedulerHeap) })
}

func benchTimerChurn(b *testing.B, kind SchedulerKind) {
	s := NewWithScheduler(1, kind)
	// RTO-style storm: many armed timers, each ACK re-arms one ~200ms out
	// while the clock crawls forward through occasional fires.
	const timers = 1024
	tms := make([]*Timer, timers)
	for i := range tms {
		tms[i] = s.NewTimer(func() {})
		tms[i].Reset(200*time.Millisecond + time.Duration(i)*time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tms[i%timers].Reset(200 * time.Millisecond)
		if i%64 == 0 {
			s.Step()
		}
	}
}

// BenchmarkTimerChurn measures the Reset-per-ACK pattern: re-arm an armed
// timer in place, wheel vs heap.
func BenchmarkTimerChurn(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchTimerChurn(b, SchedulerWheel) })
	b.Run("heap", func(b *testing.B) { benchTimerChurn(b, SchedulerHeap) })
}
