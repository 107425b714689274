// Package sim provides a deterministic discrete-event simulator used as the
// time base for the emulated network, the TCP endpoints and the MPTCP
// connection layer.
//
// All protocol code in this repository is written against sim.Clock rather
// than the wall clock, which makes experiments reproducible (a fixed RNG seed
// yields a bit-identical packet trace) and lets multi-minute transfers run in
// milliseconds of real time.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Event locations. An event lives in exactly one part of the timing wheel at
// a time; locNone means "not queued" (fired, canceled, or on the free list).
const (
	locNone uint8 = iota
	locNear
	locSlot
	locOverflow
)

// Event is a scheduled callback.
type Event struct {
	// At is the absolute simulation time at which the event fires.
	At time.Duration
	// Fn is invoked when the event fires. It must not block.
	Fn func()
	// fn2/a/b carry the argument-passing form (ScheduleArgsAtSeq), which lets
	// per-packet callers schedule a shared top-level function with pointer
	// arguments instead of allocating a fresh closure per packet.
	fn2  func(a, b any)
	a, b any

	seq   uint64 // tie-breaker for deterministic ordering
	index int    // position in the wheel's near or overflow heap
	// prev and next link the event into its wheel slot's list, valid when
	// where == locSlot.
	prev, next *Event
	where      uint8 // which part of the wheel holds the event
	level      uint8 // wheel level, valid when where == locSlot
	slot       uint8 // wheel slot, valid when where == locSlot
	canceled   bool
}

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e == nil || e.canceled }

// eventQueue is a min-heap ordered by (At, seq), the timing wheel's near and
// overflow heaps (wheel.go). The sift operations are hand-rolled rather than
// going through container/heap so the per-event hot path pays no interface
// dispatch or any-boxing; the algorithm is the standard binary heap, and
// since (At, seq) is a strict total order the pop sequence is identical to
// container/heap's regardless of internal layout.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q eventQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q eventQueue) down(i0 int) bool {
	n := len(q)
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	(*q).up(ev.index)
}

// popMin removes and returns the (At, seq)-minimum. Callable only when the
// queue is non-empty.
func (q *eventQueue) popMin() *Event {
	old := *q
	n := len(old) - 1
	min := old[0]
	if n > 0 {
		old.swap(0, n)
	}
	old[n] = nil
	*q = old[:n]
	(*q).down(0)
	min.index = -1
	return min
}

// removeAt deletes the event at heap index i.
func (q *eventQueue) removeAt(i int) {
	old := *q
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*q = old[:n]
	if i != n {
		if !(*q).down(i) {
			(*q).up(i)
		}
	}
	ev.index = -1
}

// Settler is a component that defers bookkeeping for elided (virtual) events
// and must be given a chance to catch up whenever simulation results are
// about to be observed. The (now, seq) pair is the exclusive upper bound of
// event execution so far: implementations must account for every virtual
// event strictly ordered before it, exactly as if the event had been queued.
type Settler interface {
	SettleAt(now time.Duration, seq uint64)
}

// Simulator is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all endpoints attached to one Simulator run on its event
// loop.
type Simulator struct {
	now     time.Duration
	sched   *wheelSched
	nextSeq uint64
	rng     *RNG

	// runningSeq is the seq of the event currently (or most recently)
	// executed. Together with now it defines the exact point the simulation
	// has reached in (At, seq) order, which is what lazy batchers compare
	// against when draining virtual events.
	runningSeq uint64

	settlers []Settler

	// free recycles Event structs: the simulator allocates several events
	// per emulated segment (transmission, delivery, timers), so reusing them
	// removes the largest remaining per-segment allocation. The free list is
	// plain (the simulator is single-threaded) and events return to it when
	// they fire or are canceled — after either, callers must not retain the
	// *Event (Timer clears its reference on both paths).
	free []*Event
	// slab is the unused rest of the last eventSlab events allocated on a
	// free-list miss: the pending high-water mark is paid slab by slab.
	slab []Event

	// locals holds one value per type for the packages layered on the
	// simulator (see Local).
	locals map[any]any
	// closed is set by Close: the simulator is done for good.
	closed bool

	// Processed counts events executed so far, useful for run-away detection
	// in tests. Virtual events elided by batching layers (netem.Link's
	// dequeue completions) are credited here when they are drained, so the
	// total matches what the unbatched schedule would have reported.
	Processed uint64

	// MaxEvents aborts Run with an error when more than this many events have
	// been processed (0 means no limit).
	MaxEvents uint64
}

// New returns a simulator with its clock at zero and a deterministic RNG
// seeded with seed.
func New(seed uint64) *Simulator {
	return &Simulator{sched: &wheelSched{}, rng: NewRNG(seed), locals: stash.take()}
}

// Local returns the simulator's value of type T, a zero T created on first
// use. Packages layered on the simulator keep in it the state that everything
// running on one event loop shares — free lists above all: a simulator is
// single-threaded, so such state needs no lock. A value lives as long as its
// simulator unless it is a Retirer: then, once the simulator is closed, it
// may serve a later simulator of the process (Close).
func Local[T any](s *Simulator) *T {
	s.mustBeOpen("Local")
	key := any((*T)(nil))
	if v, ok := s.locals[key]; ok {
		return v.(*T)
	}
	if s.locals == nil {
		s.locals = make(map[any]any)
	}
	v := new(T)
	s.locals[key] = v
	return v
}

// Retirer is a Local value that can outlive its simulator. When the
// simulator is closed, Retire drops whatever could keep the closed world's
// memory alive (an object that shares its allocation with objects the world
// may still hold, a pointer into the world) and keeps the rest, and the value
// goes to the process's stash, from which New hands it to a later simulator
// as that simulator's value of its type. Retire runs on a closed simulator,
// so it touches nothing but its own value. What it keeps must be equivalent
// to a fresh zero value for every user: a stash never changes a result.
type Retirer interface {
	Retire()
}

// stashCap bounds the retired Local sets waiting for a new simulator. A
// fleet run closes one world per shard and a figure sweep one per point, and
// the next run builds about as many, at most a worker count at a time: 8
// covers the 4 shards of the scenarios and benchmarks and a sweep's workers
// on a small host. A set beyond it would only keep a closed world's peak of
// live-flow structs for nobody, so it is left to the garbage collector.
const stashCap = 8

// stash holds the Retirer values of closed simulators for the next ones.
var stash localStash

type localStash struct {
	mu   sync.Mutex
	sets []map[any]any
}

// put keeps set for a later simulator, unless the stash is full.
func (st *localStash) put(set map[any]any) {
	st.mu.Lock()
	if len(st.sets) < stashCap {
		st.sets = append(st.sets, set)
	}
	st.mu.Unlock()
}

// take returns the most recently kept set, or nil.
func (st *localStash) take() map[any]any {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.sets)
	if n == 0 {
		return nil
	}
	set := st.sets[n-1]
	st.sets[n-1] = nil
	st.sets = st.sets[:n-1]
	return set
}

// Close ends the simulator for good. Its Retirer values are retired and
// handed to the process's stash for a later simulator; the others go with
// it. From then on Schedule, Step, Run and Local panic: the values that left
// may already serve another simulator, on another goroutine, and nothing of
// the closed world may run and reach them. Whoever closes a simulator first
// returns to the free lists what it can (a world recycles its retired
// connections) and stops stepping it for good; the pending events are
// dropped with it. Closing a closed simulator does nothing.
func (s *Simulator) Close() {
	if s.closed {
		return
	}
	s.closed = true
	var kept map[any]any
	for k, v := range s.locals {
		r, ok := v.(Retirer)
		if !ok {
			continue
		}
		r.Retire()
		if kept == nil {
			kept = make(map[any]any, len(s.locals))
		}
		kept[k] = v
	}
	s.locals = nil
	if kept != nil {
		stash.put(kept)
	}
}

// Closed reports whether Close has been called.
func (s *Simulator) Closed() bool { return s.closed }

// mustBeOpen panics when the simulator has been closed.
func (s *Simulator) mustBeOpen(op string) {
	if s.closed {
		panic("sim: " + op + " on a closed simulator")
	}
}

// Now returns the current simulation time.
func (s *Simulator) Now() time.Duration { return s.now }

// RNG returns the simulator's deterministic random number generator.
func (s *Simulator) RNG() *RNG { return s.rng }

// Schedule schedules fn to run after delay d (relative to Now). Negative
// delays are clamped to zero. The returned event can be canceled.
func (s *Simulator) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now+d, fn)
}

// ScheduleAt schedules fn at absolute time at. Times in the past are clamped
// to the current time. The returned event is only valid until it fires or is
// canceled; retain a Timer, not an Event, for anything longer-lived.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: ScheduleAt with nil fn")
	}
	s.mustBeOpen("ScheduleAt")
	if at < s.now {
		at = s.now
	}
	ev := s.newEvent()
	ev.At, ev.Fn, ev.seq = at, fn, s.nextSeq
	s.nextSeq++
	s.sched.insert(ev)
	return ev
}

// ReserveSeq consumes and returns the next event sequence number without
// scheduling anything. Batching layers that elide per-packet events use it to
// keep the (At, seq) order of the remaining events exactly as if the elided
// ones had been queued: the reserved seq stands in for the virtual event and
// can later be attached to a real event via ScheduleArgsAtSeq.
func (s *Simulator) ReserveSeq() uint64 {
	v := s.nextSeq
	s.nextSeq++
	return v
}

// NextSeq returns the sequence number the next Schedule or ReserveSeq will
// take, without taking it: every event scheduled from now on has a seq at
// least this, every one scheduled before has a smaller one.
func (s *Simulator) NextSeq() uint64 { return s.nextSeq }

// RunningSeq returns the sequence number of the event currently (or most
// recently) executed. Paired with Now it identifies the exact position in
// (At, seq) order the simulation has reached; lazy batchers compare their
// virtual events against it when draining.
func (s *Simulator) RunningSeq() uint64 { return s.runningSeq }

// ScheduleArgsAtSeq schedules fn(a, b) at absolute time at using a sequence
// number previously obtained from ReserveSeq. The caller must pass each
// reserved seq to at most one schedule call; replay-exact batching depends on
// the (at, seq) pair matching what the unbatched schedule would have used.
// The callback receives its context as arguments, so per-packet callers pass
// a shared top-level function plus two pointers and allocate no closure
// (pointers stored in an interface do not allocate).
func (s *Simulator) ScheduleArgsAtSeq(at time.Duration, seq uint64, fn func(a, b any), a, b any) *Event {
	if fn == nil {
		panic("sim: ScheduleArgsAtSeq with nil fn")
	}
	s.mustBeOpen("ScheduleArgsAtSeq")
	if seq >= s.nextSeq {
		panic("sim: ScheduleArgsAtSeq with unreserved seq")
	}
	if at < s.now {
		at = s.now
	}
	ev := s.newEvent()
	ev.At, ev.fn2, ev.a, ev.b, ev.seq = at, fn, a, b, seq
	s.sched.insert(ev)
	return ev
}

// ScheduleArgsAt is ScheduleAt for a callback that receives its context as
// arguments, as ScheduleArgsAtSeq's does: a caller that would bind a method
// value per object passes one shared function and the object instead.
func (s *Simulator) ScheduleArgsAt(at time.Duration, fn func(a, b any), a, b any) *Event {
	return s.ScheduleArgsAtSeq(at, s.ReserveSeq(), fn, a, b)
}

// eventSlab is how many events one free-list miss allocates (the list lives
// and dies with the simulator — Close hands on no event — so a slab pinned by
// one event costs nothing).
const eventSlab = 64

func (s *Simulator) newEvent() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		*ev = Event{}
		return ev
	}
	if len(s.slab) == 0 {
		s.slab = make([]Event, eventSlab)
	}
	ev := &s.slab[0]
	s.slab = s.slab[1:]
	return ev
}

// Cancel removes a previously scheduled event. Canceling a nil, fired or
// already-canceled event is a no-op.
func (s *Simulator) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.where == locNone {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	s.sched.remove(ev)
	ev.Fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
	s.free = append(s.free, ev)
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.sched.size() }

// RegisterSettler adds a settle hook invoked whenever a run boundary is
// reached (Run/RunUntil return) or Settle is called explicitly. Hooks must be
// idempotent and must not schedule events.
func (s *Simulator) RegisterSettler(st Settler) {
	s.settlers = append(s.settlers, st)
}

// Settle brings all registered settle hooks up to date with the current
// execution point. Drivers that advance the simulator via Step (rather than
// Run/RunUntil) must call it before reading results that depend on event
// counts or queue occupancy.
func (s *Simulator) Settle() { s.settleAll(s.now, s.runningSeq) }

func (s *Simulator) settleAll(now time.Duration, seq uint64) {
	for _, st := range s.settlers {
		st.SettleAt(now, seq)
	}
}

// step executes the earliest event. It returns false when the queue is empty.
func (s *Simulator) step() bool {
	ev := s.sched.pop()
	if ev == nil {
		return false
	}
	s.now = ev.At
	s.runningSeq = ev.seq
	s.Processed++
	fn, fn2, a, b := ev.Fn, ev.fn2, ev.a, ev.b
	ev.Fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
	ev.canceled = true // fired events behave as canceled for late Cancel calls
	s.free = append(s.free, ev)
	switch {
	case fn != nil:
		fn()
	case fn2 != nil:
		fn2(a, b)
	}
	return true
}

// Step executes the earliest pending event, advancing the clock to its
// firing time. It returns false when no events remain. Blocking adapters
// (mptcpgo.Stream) use it to drive the simulation just far enough to make
// progress.
func (s *Simulator) Step() bool {
	s.mustBeOpen("Step")
	return s.step()
}

// Run executes events until the queue drains. It returns an error if
// MaxEvents is exceeded.
func (s *Simulator) Run() error {
	s.mustBeOpen("Run")
	for s.step() {
		if s.MaxEvents > 0 && s.Processed > s.MaxEvents {
			s.settleAll(s.now, s.runningSeq)
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now)
		}
	}
	s.settleAll(s.now, ^uint64(0))
	return nil
}

// RunUntil executes events with firing times <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is advanced to the deadline.
func (s *Simulator) RunUntil(deadline time.Duration) error {
	s.mustBeOpen("RunUntil")
	for {
		ev := s.sched.peek()
		if ev == nil || ev.At > deadline {
			break
		}
		s.step()
		if s.MaxEvents > 0 && s.Processed > s.MaxEvents {
			s.settleAll(s.now, s.runningSeq)
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now)
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	s.settleAll(s.now, ^uint64(0))
	return nil
}

// RunFor runs the simulation for d beyond the current time.
func (s *Simulator) RunFor(d time.Duration) error { return s.RunUntil(s.now + d) }

// Timer is a restartable one-shot timer bound to a simulator, analogous to a
// kernel timer (e.g. the TCP retransmission timer). It is meant to be a field
// of its owner: Init binds it in place, expiry is an argument-passing event
// carrying the timer, and the callback gets the owner back as arg, so a timer
// costs no object beside its owner. The zero Timer is stopped; a Timer must
// not be copied once armed (the pending event points at it).
type Timer struct {
	sim *Simulator
	ev  *Event
	fn  func(arg any)
	arg any
}

// Init binds the timer to s and to the callback fn(arg), leaving it stopped.
// Owners pass a package-level function and themselves (a pointer in an
// interface does not allocate; a bound method value would).
func (t *Timer) Init(s *Simulator, fn func(arg any), arg any) {
	if fn == nil {
		panic("sim: Timer.Init with nil fn")
	}
	t.sim, t.fn, t.arg = s, fn, arg
}

// NewTimer creates a stopped timer that invokes fn when it expires.
func (s *Simulator) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil fn")
	}
	t := new(Timer)
	t.Init(s, func(f any) { f.(func())() }, fn)
	return t
}

// Reset (re)arms the timer to fire after d. Any previously pending expiry is
// canceled. A pending timer re-arms in place: the event is unlinked, stamped
// with a fresh (At, seq) and reinserted, skipping the cancel/free/alloc round
// trip — on the timing wheel this is the O(1) per-ACK RTO path. Either
// way arming consumes exactly one sequence number, as Schedule does.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := t.sim
	if ev := t.ev; ev != nil && !ev.canceled && ev.where != locNone {
		s.sched.remove(ev)
		ev.At = s.now + d
		ev.seq = s.nextSeq
		s.nextSeq++
		s.sched.insert(ev)
		return
	}
	t.ev = s.ScheduleArgsAtSeq(s.now+d, s.ReserveSeq(), fireTimer, t, nil)
}

// ResetIfStopped arms the timer only if it is not already pending.
func (t *Timer) ResetIfStopped(d time.Duration) {
	if !t.Pending() {
		t.Reset(d)
	}
}

// fireTimer is the expiry event of every timer.
func fireTimer(a, _ any) {
	t := a.(*Timer)
	t.ev = nil
	t.fn(t.arg)
}

// Stop cancels a pending expiry. It is safe to call on a stopped timer, a
// never-initialised zero Timer included.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.sim.Cancel(t.ev)
		t.ev = nil
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev != nil && !t.ev.Canceled() }

// DeriveSeed deterministically derives an independent child seed from a root
// seed and a stream index (splitmix64 over root+stream). Sharded runs use it
// to give every worker simulator its own RNG stream: the derived seeds depend
// only on (root, stream), never on worker scheduling, so a sharded scenario
// produces identical results at any worker count.
func DeriveSeed(root, stream uint64) uint64 {
	z := root + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a small, fast deterministic PRNG (xorshift64*). It intentionally does
// not use math/rand so that traces remain stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a deterministic RNG. A zero seed is mapped to a fixed
// non-zero constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Uint32 returns the next pseudo-random 32-bit value.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a value uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a value uniformly distributed in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}
