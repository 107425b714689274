package probe

import (
	"testing"
	"time"

	"mptcpgo/internal/sim"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(0, KindRTO, 0, 0, 1, 2)
	r.Count(0, CtrRTOs, 1)
	r.Watch(0, 0, 0, func(*Sample) bool { return true })
	r.StartSampler(nil)
	if r.Members() != 0 || r.TimerEvents() != 0 || r.EventCount(0) != 0 {
		t.Fatal("nil recorder reported non-zero state")
	}
	if got := r.AppendEvents(nil, 0); got != nil {
		t.Fatalf("nil recorder appended events: %v", got)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	s := sim.New(1)
	r := NewRecorder(s, 4, 2, 0)
	const extra = 6
	for i := 0; i < eventCap+extra; i++ {
		r.Emit(5, KindRTO, 0, 0, int64(i), 0)
	}
	evs := r.AppendEvents(nil, 5)
	if len(evs) != eventCap {
		t.Fatalf("ring kept %d events, want %d", len(evs), eventCap)
	}
	for i, e := range evs {
		if want := int64(extra + i); e.A != want {
			t.Fatalf("event %d: A=%d, want %d (oldest overwritten)", i, e.A, want)
		}
		if e.Member != 5 {
			t.Fatalf("event %d: member=%d, want 5", i, e.Member)
		}
	}
	if r.Dropped(5) != extra {
		t.Fatalf("dropped=%d, want %d", r.Dropped(5), extra)
	}
	if r.EventCount(4) != 0 {
		t.Fatal("untouched member has events")
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	r := NewRecorder(s, 0, 1, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(0, KindFastRetransmit, 1, 2, 3, 4)
		r.Count(0, CtrFastRtx, 1)
	})
	if allocs != 0 {
		t.Fatalf("Emit+Count allocated %.1f per op, want 0", allocs)
	}
}

func TestSamplerAlignedAndBounded(t *testing.T) {
	s := sim.New(1)
	r := NewRecorder(s, 0, 1, 100*time.Millisecond)
	alive := true
	// Register at a non-aligned time: first sample must land on the next
	// absolute multiple of the interval.
	s.Schedule(37*time.Millisecond, func() {
		r.Watch(0, 1, 2, func(out *Sample) bool {
			out.Cwnd = 42
			return alive
		})
	})
	s.Schedule(450*time.Millisecond, func() { alive = false })
	r.StartSampler(nil)
	s.Run()
	got := r.Samples(0)
	if len(got) != 5 {
		t.Fatalf("got %d samples, want 5 (100..500ms)", len(got))
	}
	for i, smp := range got {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if smp.At != want {
			t.Fatalf("sample %d at %v, want %v", i, smp.At, want)
		}
		if smp.Cwnd != 42 || smp.Conn != 1 || smp.Subflow != 2 {
			t.Fatalf("sample %d not filled: %+v", i, smp)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("sampler left %d events pending after last target died", s.Pending())
	}
	if r.TimerEvents() == 0 {
		t.Fatal("timer events not counted")
	}
}

func TestSamplerStopsWhenDone(t *testing.T) {
	s := sim.New(1)
	r := NewRecorder(s, 0, 1, 50*time.Millisecond)
	done := false
	r.Watch(0, 0, 0, func(out *Sample) bool { return true })
	r.StartSampler(func() bool { return done })
	s.Schedule(175*time.Millisecond, func() { done = true })
	s.Run()
	if n := len(r.Samples(0)); n != 3 {
		t.Fatalf("got %d samples, want 3 (50,100,150ms)", n)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{At: time.Second, Kind: KindRTO, Member: 3, Conn: 0, Subflow: 1, A: 2, B: int64(800 * time.Millisecond)},
		{At: 2 * time.Second, Kind: KindFallback, Member: 3, Conn: 0, Subflow: -1, A: 1},
	}
	buf := AppendJSONL(nil, in)
	out, err := ParseJSONL(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost events: %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestDrainTail(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []Event{
		// An early run that ends (backoff resets afterwards).
		{At: ms(100), Kind: KindRTO, Member: 0, Conn: 0, Subflow: 0, A: 1, B: int64(ms(200))},
		{At: ms(300), Kind: KindRTO, Member: 0, Conn: 0, Subflow: 0, A: 2, B: int64(ms(400))},
		// The trailing run: 1s, 2s, 4s backoff starting at t=1000ms.
		{At: ms(1000), Kind: KindRTO, Member: 0, Conn: 0, Subflow: 0, A: 1, B: int64(ms(1000))},
		{At: ms(2000), Kind: KindRTO, Member: 0, Conn: 0, Subflow: 0, A: 2, B: int64(ms(2000))},
		{At: ms(4000), Kind: KindRTO, Member: 0, Conn: 0, Subflow: 0, A: 3, B: int64(ms(4000))},
		// A different subflow with a short tail.
		{At: ms(500), Kind: KindRTO, Member: 0, Conn: 0, Subflow: 1, A: 1, B: int64(ms(100))},
	}
	got := DrainTail(events)
	want := ms(4000) - ms(1000) + ms(4000) // trailing run span + final backoff
	if got != want {
		t.Fatalf("DrainTail=%v, want %v", got, want)
	}
	if DrainTail(nil) != 0 {
		t.Fatal("empty stream should have zero tail")
	}
}
