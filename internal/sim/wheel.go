package sim

import (
	"math/bits"
	"time"
)

// Hierarchical timing wheel: the scheduler behind Simulator.
//
// The motivation is the fleet hot path's event mix: RTO timers re-armed once
// per ACK, link serialization completions and probe ticks are all scheduled a
// short, bounded distance into the future and very frequently canceled or
// replaced before firing. A binary heap pays O(log n) sift work for every one
// of those operations and dominated the BenchmarkFleetSegmentRate profile;
// the wheel makes schedule and cancel O(1) amortized while releasing events in
// exactly the (At, seq) order a binary heap would. The tests keep such a heap
// as the reference: FuzzSchedulerEquivalence and the hand-built scripts drive
// both containers with the same operations and compare every pop and peek.
//
// Layout. Time is quantized into ticks of 2^wheelTickShift nanoseconds
// (16.384µs). The wheel has wheelLevels levels of wheelSlots slots each;
// level l slot s holds events whose tick agrees with the cursor in all 6-bit
// digits above l and has digit s at level l. Placement picks the highest
// digit in which the event's tick differs from the cursor, which guarantees
// the slot is strictly ahead of the cursor's position in the current window —
// slots never wrap into a future lap, so a per-level occupancy bitmap gives
// an exact "next occupied position" and the cursor can jump over empty
// regions instead of stepping tick by tick.
//
// Ordering. Events whose tick is at or behind the cursor live in a small
// "near" min-heap ordered by (At, seq): one tick spans many distinct firing
// times, so the heap restores sub-tick order. The invariant is
//
//	near:  tick(ev) <= curTick
//	wheel: tick(ev) >  curTick, placeable (top digits match curTick)
//	over:  tick(ev) differs from curTick in a digit >= wheelLevels
//
// which makes every near event strictly earlier than every wheel event (their
// tick ranges are disjoint), so popping the near minimum is globally correct.
//
// Advancing. When near drains, the cursor jumps to the smallest candidate
// among all levels' next occupied slots: for level 0 that position is an
// event tick, for higher levels it is the boundary where the slot must be
// cascaded (re-placed one level down relative to the new cursor). A cascaded
// event lands strictly below its old level, so each event cascades at most
// wheelLevels-1 times over its lifetime — O(1) amortized. Far-future events
// (differing in a digit above the top level, horizon 2^30 ticks ≈ 4.9h) wait
// in an overflow heap; when the wheel empties the cursor rebases onto the
// overflow minimum and refills.
const (
	wheelTickShift = 14 // 16.384µs per tick
	wheelLevelBits = 6
	wheelSlots     = 1 << wheelLevelBits
	wheelLevels    = 5
	// wheelSpanBits is the total digit width covered by the wheel; ticks
	// differing from the cursor at bit wheelSpanBits or above overflow.
	wheelSpanBits = wheelLevelBits * wheelLevels
)

type wheelSched struct {
	// curTick is the cursor: every slotted event's tick is strictly ahead of
	// it, every near event's tick is at or behind it.
	curTick int64

	near     eventQueue // due events, ordered by (At, seq)
	overflow eventQueue // beyond the wheel horizon, ordered by (At, seq)

	// slots holds the head of each slot's list, which is threaded through
	// the events themselves (Event.prev/next): filing, unlinking and emptying
	// a slot allocate nothing, however many events it has ever held.
	slots    [wheelLevels][wheelSlots]*Event
	occupied [wheelLevels]uint64 // bit s set iff slots[l][s] is non-empty
	slotted  int                 // events currently in wheel slots
}

func wheelTick(at time.Duration) int64 { return int64(at) >> wheelTickShift }

// digitLevel returns the index of the highest 6-bit digit in which t and base
// differ. t must be strictly greater than base.
func digitLevel(t, base int64) int {
	return (63 - bits.LeadingZeros64(uint64(t^base))) / wheelLevelBits
}

// insert enqueues ev and sets ev.where.
func (w *wheelSched) insert(ev *Event) {
	t := wheelTick(ev.At)
	if t <= w.curTick {
		ev.where = locNear
		w.near.push(ev)
		return
	}
	w.place(ev, t)
}

// place files an event whose tick is strictly ahead of the cursor into a
// wheel slot, or into overflow when it is beyond the horizon.
func (w *wheelSched) place(ev *Event, t int64) {
	l := digitLevel(t, w.curTick)
	if l >= wheelLevels {
		ev.where = locOverflow
		w.overflow.push(ev)
		return
	}
	s := int((t >> (l * wheelLevelBits)) & (wheelSlots - 1))
	head := w.slots[l][s]
	ev.where, ev.level, ev.slot = locSlot, uint8(l), uint8(s)
	ev.prev, ev.next = nil, head
	if head != nil {
		head.prev = ev
	}
	w.slots[l][s] = ev
	w.occupied[l] |= 1 << s
	w.slotted++
}

// remove dequeues a pending event and clears ev.where.
func (w *wheelSched) remove(ev *Event) {
	switch ev.where {
	case locNear:
		w.near.removeAt(ev.index)
	case locOverflow:
		w.overflow.removeAt(ev.index)
	case locSlot:
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			w.slots[ev.level][ev.slot] = ev.next
			if ev.next == nil {
				w.occupied[ev.level] &^= 1 << ev.slot
			}
		}
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		w.slotted--
	}
	ev.where = locNone
}

// pop extracts the (At, seq)-minimum, nil when empty.
func (w *wheelSched) pop() *Event {
	if !w.advance() {
		return nil
	}
	ev := w.near.popMin()
	ev.where = locNone
	return ev
}

// peek returns the minimum without extracting it, nil when empty. It may
// move the cursor forward.
func (w *wheelSched) peek() *Event {
	if !w.advance() {
		return nil
	}
	return w.near[0]
}

// size returns the number of queued events.
func (w *wheelSched) size() int { return len(w.near) + len(w.overflow) + w.slotted }

// advance moves the cursor forward until the near heap is non-empty. It
// returns false when no events remain anywhere.
func (w *wheelSched) advance() bool {
	for len(w.near) == 0 {
		if w.slotted == 0 {
			if len(w.overflow) == 0 {
				return false
			}
			w.rebase()
			continue
		}
		cand := w.nextCandidate()
		w.curTick = cand
		// Entering cand crosses every level-l boundary with cand ≡ 0
		// (mod 64^l); cascade those slots highest-first so events settle
		// strictly downward relative to the new cursor.
		for l := wheelLevels - 1; l >= 1; l-- {
			if cand&((1<<(l*wheelLevelBits))-1) == 0 {
				w.cascade(l, int((cand>>(l*wheelLevelBits))&(wheelSlots-1)))
			}
		}
		if s := int(cand & (wheelSlots - 1)); w.occupied[0]&(1<<s) != 0 {
			w.dumpToNear(0, s)
		}
	}
	return true
}

// nextCandidate returns the smallest tick at which the wheel has work: a
// level-0 event tick, or a higher-level slot boundary requiring a cascade.
// Placement never wraps slots past the current window, so "next occupied
// position strictly after the cursor's digit" is exact at every level.
// Callable only while slotted > 0.
func (w *wheelSched) nextCandidate() int64 {
	best := int64(-1)
	for l := 0; l < wheelLevels; l++ {
		shift := uint(l * wheelLevelBits)
		pos := (w.curTick >> shift) & (wheelSlots - 1)
		ahead := w.occupied[l] &^ (2<<uint(pos) - 1)
		if ahead == 0 {
			continue
		}
		s := int64(bits.TrailingZeros64(ahead))
		base := w.curTick &^ (1<<(shift+wheelLevelBits) - 1)
		cand := base | s<<shift
		if best < 0 || cand < best {
			best = cand
		}
	}
	if best < 0 {
		panic("sim: wheel occupancy inconsistent")
	}
	return best
}

// cascade re-files every event in slots[l][s] relative to the new cursor.
// Each lands strictly below level l (its top digits now match the cursor), or
// in near when its tick equals the cursor.
func (w *wheelSched) cascade(l, s int) {
	for ev := w.take(l, s); ev != nil; {
		next := ev.next
		w.slotted--
		if t := wheelTick(ev.At); t <= w.curTick {
			ev.where = locNear
			w.near.push(ev)
		} else {
			w.place(ev, t)
		}
		ev = next
	}
}

// dumpToNear moves an entire slot into the near heap (used for level-0 slots,
// whose events are all due once the cursor reaches their tick).
func (w *wheelSched) dumpToNear(l, s int) {
	for ev := w.take(l, s); ev != nil; {
		next := ev.next
		w.slotted--
		ev.where = locNear
		w.near.push(ev)
		ev = next
	}
}

// take empties slots[l][s] and returns the head of the list it held. The
// order within a slot is immaterial: its events go on to a heap, or to lower
// slots whose events go on to one, and the heaps order by (At, seq).
func (w *wheelSched) take(l, s int) *Event {
	head := w.slots[l][s]
	w.slots[l][s] = nil
	w.occupied[l] &^= 1 << s
	return head
}

// rebase jumps the cursor onto the overflow minimum when the wheel is empty
// and refills from overflow. Events sharing the minimum tick become near
// (tick == cursor); later ticks re-place normally. The overflow heap is
// (At, seq)-ordered and digitLevel is monotone in t for fixed base, so the
// refill can stop at the first event still beyond the new horizon.
func (w *wheelSched) rebase() {
	minT := wheelTick(w.overflow[0].At)
	w.curTick = minT
	for len(w.overflow) > 0 {
		t := wheelTick(w.overflow[0].At)
		if t > minT && digitLevel(t, minT) >= wheelLevels {
			break
		}
		ev := w.overflow.popMin()
		if t == minT {
			ev.where = locNear
			w.near.push(ev)
		} else {
			w.place(ev, t)
		}
	}
}
