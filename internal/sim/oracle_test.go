package sim

import (
	"fmt"
	"testing"
	"time"
)

// heapSched is the reference the timing wheel is checked against: a plain
// binary heap over eventQueue, O(log n) everywhere, whose pop order is the
// (At, seq) order by construction.
type heapSched struct {
	q eventQueue
}

func (h *heapSched) insert(ev *Event) { h.q.push(ev) }

func (h *heapSched) remove(ev *Event) { h.q.removeAt(ev.index) }

func (h *heapSched) pop() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q.popMin()
}

func (h *heapSched) peek() *Event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapSched) size() int { return len(h.q) }

// container is what the simulator asks of its pending-event store. The wheel
// and the heap reference both provide it, so the benchmarks drive either
// through the same code.
type container interface {
	insert(ev *Event)
	remove(ev *Event)
	pop() *Event
	peek() *Event
	size() int
}

// Container ops of a differential script. Each mirrors what a Simulator call
// does to its scheduler; the script keeps the simulator's precondition that
// nothing is inserted before the clock, which only pops and opRunUntil move.
const (
	opInsert         = iota // ScheduleAt: insert at now+delay with the next seq
	opRemove                // Cancel: remove a queued event
	opPop                   // step: pop; the clock moves to the popped At
	opPeek                  // peek without popping
	opRunUntil              // RunUntil(now+delay): pop while the minimum is due, then move the clock
	opTimerReset            // Timer.Reset: a queued timer event is removed, re-stamped and reinserted in place; a stopped one is inserted afresh
	opTimerStop             // Timer.Stop: remove a queued timer event
	opReserve               // ReserveSeq: take a seq for a later insert
	opInsertReserved        // ScheduleArgsAtSeq: insert at now+delay with a reserved seq
	numOps
)

// schedOp is one op of a differential script; see runContainerScript.
type schedOp struct {
	kind  uint8 // op, modulo numOps
	delay uint8 // index into schedDelays
	pick  uint8 // which queued event, timer or reserved seq the op targets
}

// schedDelays spans every interesting placement: sub-tick, same-tick, the
// cascade boundary of each level, and past the overflow horizon.
var schedDelays = []time.Duration{
	0, 1, tick(1) - 1, tick(1), tick(1) + 1,
	tick(1<<wheelLevelBits) - 1, tick(1 << wheelLevelBits), tick(1<<wheelLevelBits) + 1,
	tick(1 << (2 * wheelLevelBits)), tick(1 << (3 * wheelLevelBits)), tick(1 << (4 * wheelLevelBits)),
	tick(1 << wheelSpanBits), tick(1<<wheelSpanBits) + tick(3),
}

// twin is one logical event, queued as one Event in the wheel and an equal
// one in the heap (an Event can sit in one container only). Both Events carry
// the twin as their argument, which is how a pop is matched across the two.
type twin struct {
	id   int
	w, h *Event
	qi   int // index in containerRun.queued
}

// containerRun is the state of one differential script.
type containerRun struct {
	t        testing.TB
	w        *wheelSched
	h        *heapSched
	now      time.Duration
	nextSeq  uint64
	nextID   int
	queued   []*twin
	timers   [2]*twin // each timer's queued event, nil while stopped
	reserved []uint64
	op       int // index of the op being run, for failure messages
}

// runContainerScript runs ops on a fresh wheel and a fresh heap, then drains
// both. It fails t at the first op after which the two disagree: a different
// pop or peek result, or a different size.
func runContainerScript(t testing.TB, ops []schedOp) {
	r := &containerRun{t: t, w: &wheelSched{}, h: &heapSched{}}
	for i, o := range ops {
		r.op = i
		r.do(o)
		r.checkSize()
	}
	r.op = len(ops)
	for r.pop() != nil {
		r.checkSize()
	}
	if r.w.size() != 0 || r.h.size() != 0 {
		t.Fatalf("after draining: wheel holds %d, heap %d", r.w.size(), r.h.size())
	}
}

func (r *containerRun) do(o schedOp) {
	d := schedDelays[int(o.delay)%len(schedDelays)]
	switch o.kind % numOps {
	case opInsert:
		r.insert(r.now+d, r.takeSeq())
	case opRemove:
		if len(r.queued) > 0 {
			r.remove(r.queued[int(o.pick)%len(r.queued)])
		}
	case opPop:
		r.pop()
	case opPeek:
		r.peek()
	case opRunUntil:
		deadline := r.now + d
		for tw := r.peek(); tw != nil && tw.w.At <= deadline; tw = r.peek() {
			r.pop()
		}
		r.now = deadline
	case opTimerReset:
		i := o.pick % 2
		tw := r.timers[i]
		if tw == nil {
			r.timers[i] = r.insert(r.now+d, r.takeSeq())
			return
		}
		r.w.remove(tw.w)
		r.h.remove(tw.h)
		at, seq := r.now+d, r.takeSeq()
		tw.w.At, tw.w.seq = at, seq
		tw.h.At, tw.h.seq = at, seq
		r.w.insert(tw.w)
		r.h.insert(tw.h)
	case opTimerStop:
		if tw := r.timers[o.pick%2]; tw != nil {
			r.remove(tw)
		}
	case opReserve:
		r.reserved = append(r.reserved, r.takeSeq())
	case opInsertReserved:
		if len(r.reserved) == 0 {
			r.insert(r.now+d, r.takeSeq())
			return
		}
		// Each reserved seq goes to one insert, in any order.
		k := int(o.pick) % len(r.reserved)
		seq := r.reserved[k]
		r.reserved = append(r.reserved[:k], r.reserved[k+1:]...)
		r.insert(r.now+d, seq)
	}
}

func (r *containerRun) takeSeq() uint64 {
	seq := r.nextSeq
	r.nextSeq++
	return seq
}

func (r *containerRun) insert(at time.Duration, seq uint64) *twin {
	tw := &twin{id: r.nextID, qi: len(r.queued)}
	r.nextID++
	tw.w = &Event{At: at, seq: seq, a: tw}
	tw.h = &Event{At: at, seq: seq, a: tw}
	r.queued = append(r.queued, tw)
	r.w.insert(tw.w)
	r.h.insert(tw.h)
	return tw
}

func (r *containerRun) remove(tw *twin) {
	r.w.remove(tw.w)
	r.h.remove(tw.h)
	r.forget(tw)
}

// pop pops both containers and returns the twin they agree on, nil when both
// are empty.
func (r *containerRun) pop() *twin {
	tw := r.same("pop", r.w.pop(), r.h.pop())
	if tw != nil {
		if tw.w.At < r.now {
			r.t.Fatalf("op %d: popped #%d at %v, before the clock %v", r.op, tw.id, tw.w.At, r.now)
		}
		r.now = tw.w.At
		r.forget(tw)
	}
	return tw
}

func (r *containerRun) peek() *twin { return r.same("peek", r.w.peek(), r.h.peek()) }

// forget drops a twin that left both containers; a timer's event that left is
// a stopped timer, as fireTimer and Stop leave it.
func (r *containerRun) forget(tw *twin) {
	last := r.queued[len(r.queued)-1]
	r.queued[tw.qi], last.qi = last, tw.qi
	r.queued = r.queued[:len(r.queued)-1]
	for i := range r.timers {
		if r.timers[i] == tw {
			r.timers[i] = nil
		}
	}
}

// same fails unless the wheel and the heap returned the two Events of one
// twin (or both nothing), and returns that twin.
func (r *containerRun) same(what string, w, h *Event) *twin {
	tw := twinOf(w)
	if tw != twinOf(h) || (w != nil && (w != tw.w || h != tw.h)) {
		r.t.Fatalf("op %d: %s returned %s from the wheel, %s from the heap", r.op, what, describe(w), describe(h))
	}
	return tw
}

func (r *containerRun) checkSize() {
	if ws, hs := r.w.size(), r.h.size(); ws != hs || ws != len(r.queued) {
		r.t.Fatalf("op %d: wheel holds %d, heap %d, want %d", r.op, ws, hs, len(r.queued))
	}
}

func twinOf(ev *Event) *twin {
	if ev == nil {
		return nil
	}
	return ev.a.(*twin)
}

func describe(ev *Event) string {
	if ev == nil {
		return "nothing"
	}
	return fmt.Sprintf("#%d (At %v, seq %d)", twinOf(ev).id, ev.At, ev.seq)
}

// TestSchedulerEquivalenceHandBuilt runs curated container scripts on the
// wheel and the heap: the edge cases the fuzzer would have to rediscover
// every run.
func TestSchedulerEquivalenceHandBuilt(t *testing.T) {
	scripts := map[string][]schedOp{
		// Sub-tick instants and exact ties inside one tick.
		"same-tick-ties": {
			{opInsert, 3, 0}, {opInsert, 3, 0}, {opInsert, 4, 0}, {opInsert, 2, 0},
			{opPeek, 0, 0}, {opPop, 0, 0},
		},
		// The minimum removed once from the near heap (after a peek moved the
		// cursor onto it) and once from its slot.
		"cancel-at-head": {
			{opInsert, 1, 0}, {opInsert, 3, 0}, {opInsert, 5, 0},
			{opPeek, 0, 0}, {opRemove, 0, 0}, {opPeek, 0, 0}, {opPop, 0, 0}, {opRemove, 0, 0},
		},
		// A RunUntil whose peek leaves the cursor ahead of the clock, then
		// inserts at the clock (where ScheduleAt clamps a past time) and
		// just after it, behind the cursor.
		"past-clamp-after-advance": {
			{opInsert, 8, 0}, {opRunUntil, 6, 0}, {opInsert, 0, 0}, {opInsert, 1, 0},
		},
		// One event at each level's boundaries, a RunUntil into level 2, a
		// late short insert and a removal from a higher level; then, from a
		// clock off every boundary, events at levels 3 and 4 whose lower
		// digits are not zero, so each cascade re-files them one level down.
		"cascade-walk": {
			{opInsert, 5, 0}, {opInsert, 6, 0}, {opInsert, 7, 0}, {opInsert, 8, 0},
			{opInsert, 9, 0}, {opInsert, 10, 0},
			{opRunUntil, 8, 0}, {opInsert, 2, 0}, {opRemove, 0, 2},
			{opRunUntil, 9, 0}, {opInsert, 10, 0}, {opInsert, 9, 0},
		},
		// Events past the horizon, a rebase onto them and a removal from the
		// overflow heap.
		"overflow-rebase": {
			{opInsert, 11, 0}, {opInsert, 12, 0}, {opInsert, 1, 0}, {opPop, 0, 0},
			{opInsert, 11, 0}, {opRemove, 0, 1},
		},
		// In-place re-arms across levels, a fire, a stop and a re-arm.
		"timer-churn": {
			{opTimerReset, 2, 0}, {opTimerReset, 6, 0}, {opPop, 0, 0}, {opTimerReset, 1, 0},
			{opTimerStop, 0, 0}, {opTimerReset, 3, 0}, {opRunUntil, 7, 0},
		},
		// Two timers re-armed in place around a plain insert at one instant:
		// the re-armed one takes a later seq and goes behind the others.
		"timer-forms-interleave": {
			{opTimerReset, 3, 0}, {opTimerReset, 3, 1}, {opInsert, 3, 0}, {opTimerReset, 3, 0},
			{opPop, 0, 0}, {opTimerReset, 6, 1}, {opTimerStop, 0, 0}, {opTimerReset, 2, 0},
			{opRunUntil, 7, 0},
		},
		// A seq reserved before a plain insert, used after it at the same
		// instant (so it fires first), and reserved seqs used out of order.
		"reserved-seq-interleave": {
			{opReserve, 0, 0}, {opInsert, 2, 0}, {opInsertReserved, 2, 0},
			{opReserve, 0, 0}, {opReserve, 0, 0}, {opInsert, 3, 0}, {opInsertReserved, 3, 1},
			{opPop, 0, 0}, {opInsertReserved, 1, 0}, {opInsertReserved, 3, 0},
		},
	}
	for name, ops := range scripts {
		t.Run(name, func(t *testing.T) { runContainerScript(t, ops) })
	}
}

// FuzzSchedulerEquivalence drives the wheel and the heap with the same
// randomized container script (3 bytes an op) and requires the same result
// from every pop and peek and the same size after every op. Any wheel bug
// that reorders, drops or double-releases an event shows as a divergence
// from the heap.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{opInsert, 3, 0, opInsert, 3, 1, opPop, 0, 0})
	f.Add([]byte{opInsert, 11, 0, opInsert, 12, 0, opPop, 0, 0, opRemove, 0, 1})
	f.Add([]byte{opTimerReset, 2, 0, opTimerReset, 6, 0, opPop, 0, 0, opReserve, 0, 0, opInsert, 1, 0,
		opInsertReserved, 1, 0, opRunUntil, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512] // bound script length, not coverage
		}
		ops := make([]schedOp, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			ops = append(ops, schedOp{data[i], data[i+1], data[i+2]})
		}
		runContainerScript(t, ops)
	})
}

func benchScheduleCancel(b *testing.B, c container) {
	// A resident population gives the heap its realistic O(log n) depth and
	// the wheel a spread of occupied slots. Each op is what Cancel plus
	// Schedule does to the container: the simulator's free list hands the
	// canceled Event straight back, stamped with a fresh seq.
	const resident = 4096
	at := func(j int) time.Duration { return time.Duration(j%librarySpread)*tick(1) + tick(2) }
	evs := make([]Event, resident)
	var seq uint64
	for i := range evs {
		evs[i].At, evs[i].seq = at(i), seq
		seq++
		c.insert(&evs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % resident
		c.remove(&evs[j])
		evs[j].At, evs[j].seq = at(j), seq
		seq++
		c.insert(&evs[j])
	}
}

// librarySpread spreads benchmark events over ~3 wheel levels.
const librarySpread = 3000

// BenchmarkScheduleCancel measures the schedule+cancel round trip that
// dominates timer-heavy steady state, wheel vs heap.
func BenchmarkScheduleCancel(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchScheduleCancel(b, &wheelSched{}) })
	b.Run("heap", func(b *testing.B) { benchScheduleCancel(b, &heapSched{}) })
}

func benchTimerChurn(b *testing.B, c container) {
	// RTO-style storm: many armed timers, each ACK re-arms one ~200ms out
	// while the clock crawls forward through occasional fires. A timer's
	// Event is marked canceled while it is not queued, as a fired one is.
	const timers = 1024
	evs := make([]Event, timers)
	var now time.Duration
	var seq uint64
	rearm := func(ev *Event, d time.Duration) {
		if !ev.canceled {
			c.remove(ev) // pending: re-stamped in place, as Timer.Reset does
		}
		ev.At, ev.seq, ev.canceled = now+d, seq, false
		seq++
		c.insert(ev)
	}
	for i := range evs {
		evs[i].canceled = true
		rearm(&evs[i], 200*time.Millisecond+time.Duration(i)*time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rearm(&evs[i%timers], 200*time.Millisecond)
		if i%64 == 0 {
			ev := c.pop()
			now, ev.canceled = ev.At, true
		}
	}
}

// BenchmarkTimerChurn measures the Reset-per-ACK pattern: re-arm an armed
// timer in place, wheel vs heap.
func BenchmarkTimerChurn(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchTimerChurn(b, &wheelSched{}) })
	b.Run("heap", func(b *testing.B) { benchTimerChurn(b, &heapSched{}) })
}
