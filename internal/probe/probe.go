// Package probe is the simulator's flight recorder: a low-overhead,
// deterministic observability layer recording typed protocol events,
// per-subflow time-series samples and a per-member counter registry.
//
// Design rules (see DESIGN.md "Observability"):
//
//   - One Recorder per shard, owned by that shard's goroutine. All methods
//     are called synchronously on the shard's simulator; nothing is shared
//     across shards, so worker count cannot affect recorded content.
//   - Storage is keyed by *global* member index and preallocated at
//     construction: per-member ring buffers (flight-recorder semantics —
//     bounded memory, oldest events overwritten), per-member counter sets
//     and per-member sample slices. The steady-state emit path performs no
//     allocation.
//   - Every hook is nil-receiver safe: a nil *Recorder makes Emit, Count and
//     Watch no-ops, so instrumentation sites stay unconditional and cost a
//     single predictable branch when tracing is off.
//   - Events carry sim-time stamps and only *relative* protocol quantities
//     (backoff counts, window sizes, byte counts) — never wire sequence
//     numbers or keys, which are drawn from the shard-shared RNG and would
//     make output depend on how members are partitioned into shards.
//   - The time-series sampler fires at absolute aligned sim times
//     (k·interval), so sample timestamps are invariant across shard layouts.
//     Sampler timer firings are self-counted (TimerEvents) so scenarios can
//     subtract them from the simulator's processed-event total and report
//     the same "events" column with tracing on or off.
package probe

import (
	"time"

	"mptcpgo/internal/sim"
)

// Kind identifies a typed event.
type Kind uint8

// Event kinds. The integer values are not part of the stable output format
// (JSONL uses the names); ordering groups related kinds.
const (
	// Subflow lifecycle.
	KindSubflowSYN Kind = iota
	KindSubflowEstablished
	KindSubflowFailed
	KindSubflowClosed
	// Congestion-control transitions (per subflow).
	KindCCSlowStart
	KindCCAvoidance
	KindCCRecovery
	KindCCAlpha
	// Loss recovery.
	KindRTO
	KindFastRetransmit
	// Connection-level machinery.
	KindReinjection
	KindFallback
	KindAddrRemoved
	KindAddrRestored
	// External actors.
	KindFaultAction
	KindEpochAlloc
	KindStall
	// Workload milestones.
	KindFlowDone
	numKinds
)

var kindNames = [numKinds]string{
	KindSubflowSYN:         "syn",
	KindSubflowEstablished: "established",
	KindSubflowFailed:      "subflow_failed",
	KindSubflowClosed:      "subflow_closed",
	KindCCSlowStart:        "cc_slowstart",
	KindCCAvoidance:        "cc_avoidance",
	KindCCRecovery:         "cc_recovery",
	KindCCAlpha:            "cc_alpha",
	KindRTO:                "rto",
	KindFastRetransmit:     "fast_rtx",
	KindReinjection:        "reinject",
	KindFallback:           "fallback",
	KindAddrRemoved:        "addr_removed",
	KindAddrRestored:       "addr_restored",
	KindFaultAction:        "fault",
	KindEpochAlloc:         "epoch_alloc",
	KindStall:              "stall",
	KindFlowDone:           "flow_done",
}

// String returns the kind's stable name (the JSONL "kind" field).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Fault-action codes carried in the A field of KindFaultAction events.
const (
	FaultLinkDown int64 = iota
	FaultLinkUp
	FaultLossOn
	FaultLossOff
	FaultSqueeze
	FaultRestoreRate
	FaultIfaceDown
	FaultIfaceUp
)

// Counter indexes the per-member counter registry.
type Counter uint8

// Registry counters.
const (
	CtrSegments Counter = iota
	CtrSegBytes
	CtrRTOs
	CtrFastRtx
	CtrReinjections
	CtrFallbacks
	CtrSubflowDeaths
	CtrDrops
	CtrEpochCongested
	CtrStallEpisodes
	CtrFaultActions
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrSegments:       "segments",
	CtrSegBytes:       "seg bytes",
	CtrRTOs:           "rtos",
	CtrFastRtx:        "fast rtx",
	CtrReinjections:   "reinject",
	CtrFallbacks:      "fallbacks",
	CtrSubflowDeaths:  "sf deaths",
	CtrDrops:          "drops",
	CtrEpochCongested: "epoch cong",
	CtrStallEpisodes:  "stall eps",
	CtrFaultActions:   "faults",
}

// String returns the counter's column name in the registry table.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Event is one typed trace record. It is a fixed-size value (no pointers) so
// rings are flat arrays. Member is the global member index; Conn and Subflow
// are -1 when the event is not connection- or subflow-scoped. A and B are
// kind-specific payloads:
//
//	KindSubflowSYN/Established:  A=address ID, B=1 if join subflow
//	KindSubflowFailed:           A=1 for a transport-level death (RTO limit,
//	                             the peer's reset), 0 for a reset by the stack
//	                             itself (failed MPTCP validation, interface or
//	                             address loss, fallback, Abort);
//	                             B=bytes in flight at death
//	KindSubflowClosed:           a graceful close. A single subflow death
//	                             records exactly one event, subflow_failed or
//	                             subflow_closed
//	KindRTO:                     A=consecutive backoff count, B=backed-off RTO (ns)
//	KindCCAlpha:                 A=alpha*1000 (quantized), B=total cwnd bytes
//	KindReinjection:             A=bytes, B=times the mapping was reinjected
//	KindFallback:                A=reason code
//	KindFaultAction:             A=fault code (Fault*), B=path index
//	KindEpochAlloc:              A=epoch index, B=bottlenecked shard count
//	KindStall:                   A=bytes DATA_ACKed at stall entry, B=how long
//	                             bytes were held without a DATA_ACK advance (ns)
//	KindFlowDone:                A=outcome (0 failed, 1 completed, 2 deadline-dropped), B=bytes received
type Event struct {
	At      time.Duration
	Kind    Kind
	Member  int32
	Conn    int32
	Subflow int32
	A, B    int64
}

// Sample is one per-subflow time-series observation.
type Sample struct {
	At         time.Duration
	Member     int32
	Conn       int32
	Subflow    int32
	Cwnd       int64
	Ssthresh   int64
	SRTT       time.Duration
	RTO        time.Duration
	Inflight   int64
	SentBytes  int64
	ReinjBytes int64
	Alpha      float64
}

// SampleFn fills a sample for one watched subflow. The At/Member/Conn/Subflow
// fields are pre-filled by the sampler. Returning false deregisters the
// target (the subflow is gone); the sample is still recorded so timelines end
// with a final observation.
type SampleFn func(*Sample) bool

// eventCap is the per-member ring capacity. When a ring is full the oldest
// event is overwritten and the member's dropped counter incremented —
// flight-recorder semantics.
const eventCap = 2048

// sampleCap bounds the per-member sample count; further samples are counted
// as dropped.
const sampleCap = 4096

// ring is one member's event buffer.
type ring struct {
	buf     []Event
	start   int
	n       int
	dropped uint64
}

func (r *ring) push(e Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

type target struct {
	member  int32
	conn    int32
	subflow int32
	fn      SampleFn
}

// Recorder is one shard's flight recorder. See the package comment for the
// ownership and determinism rules.
type Recorder struct {
	sim      *sim.Simulator
	interval time.Duration // time-series cadence; zero disables sampling
	lo       int

	rings          []ring
	counters       [][NumCounters]uint64
	samples        [][]Sample
	samplesDropped []uint64
	frozen         []bool

	targets     []target
	timer       *sim.Timer
	done        func() bool
	started     bool
	timerEvents uint64
}

// NewRecorder builds a recorder for members [lo, lo+members) on the given
// simulator, sampling every interval (zero records events only). All
// per-member storage is preallocated here.
func NewRecorder(s *sim.Simulator, lo, members int, interval time.Duration) *Recorder {
	r := &Recorder{
		sim:            s,
		interval:       interval,
		lo:             lo,
		rings:          make([]ring, members),
		counters:       make([][NumCounters]uint64, members),
		samples:        make([][]Sample, members),
		samplesDropped: make([]uint64, members),
		frozen:         make([]bool, members),
	}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, eventCap)
	}
	r.timer = s.NewTimer(r.tick)
	return r
}

// Members returns the number of members the recorder covers.
func (r *Recorder) Members() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

// Lo returns the global index of the recorder's first member.
func (r *Recorder) Lo() int {
	if r == nil {
		return 0
	}
	return r.lo
}

// Emit records one event for the given global member. Nil-receiver safe and
// allocation-free.
func (r *Recorder) Emit(member int, k Kind, conn, subflow int32, a, b int64) {
	if r == nil {
		return
	}
	i := member - r.lo
	if i < 0 || i >= len(r.rings) || r.frozen[i] {
		return
	}
	r.rings[i].push(Event{
		At: r.sim.Now(), Kind: k,
		Member: int32(member), Conn: conn, Subflow: subflow,
		A: a, B: b,
	})
}

// Count adds delta to one of the member's registry counters. Nil-receiver
// safe and allocation-free.
func (r *Recorder) Count(member int, c Counter, delta uint64) {
	if r == nil {
		return
	}
	i := member - r.lo
	if i < 0 || i >= len(r.counters) || r.frozen[i] {
		return
	}
	r.counters[i][c] += delta
}

// Freeze permanently stops recording for one global member: further Emits,
// Counts and sampler ticks for it are dropped. Scenarios whose shards run
// until the *slowest* member finishes call this at each member's own
// completion time, so a member's recorded stream is a function of (seed,
// member index) alone — independent of how members are partitioned into
// shards and of how long its shard keeps simulating for the others.
func (r *Recorder) Freeze(member int) {
	if r == nil {
		return
	}
	i := member - r.lo
	if i < 0 || i >= len(r.frozen) {
		return
	}
	r.frozen[i] = true
}

// CountFinal is Count for collect-time folds (wire drop totals read from
// link statistics after the shard run): it bypasses Freeze, because the
// folded value is itself frozen at the member's completion.
func (r *Recorder) CountFinal(member int, c Counter, delta uint64) {
	if r == nil {
		return
	}
	i := member - r.lo
	if i < 0 || i >= len(r.counters) {
		return
	}
	r.counters[i][c] += delta
}

// Watch registers a sampling target. Targets are visited in registration
// order on every sampler tick — registration happens on the simulator
// goroutine, so the order is deterministic. If the sampler is running but its
// timer has gone idle (all previous targets deregistered), Watch re-arms it.
// It reports whether the target was registered: a nil recorder, or one that
// records events only, samples nothing.
func (r *Recorder) Watch(member int, conn, subflow int32, fn SampleFn) bool {
	if r == nil || r.interval <= 0 {
		return false
	}
	r.targets = append(r.targets, target{member: int32(member), conn: conn, subflow: subflow, fn: fn})
	if r.started && !r.timer.Pending() {
		r.armNextTick()
	}
	return true
}

// StartSampler arms the time-series timer. done, when non-nil, is consulted
// on every tick: once it reports true the sampler stops rescheduling, so the
// event queue can drain exactly as it would without tracing.
func (r *Recorder) StartSampler(done func() bool) {
	if r == nil || r.interval <= 0 || r.started {
		return
	}
	r.done = done
	r.started = true
	if len(r.targets) > 0 {
		r.armNextTick()
	}
}

// armNextTick schedules the next tick at the next absolute multiple of the
// sample interval, so timestamps are aligned regardless of when targets
// appear.
func (r *Recorder) armNextTick() {
	iv := r.interval
	next := (r.sim.Now()/iv + 1) * iv
	r.timer.Reset(next - r.sim.Now())
}

func (r *Recorder) tick() {
	r.timerEvents++
	if r.done != nil && r.done() {
		return
	}
	now := r.sim.Now()
	live := r.targets[:0]
	for _, t := range r.targets {
		i := int(t.member) - r.lo
		if i < 0 || i >= len(r.samples) || r.frozen[i] {
			continue
		}
		s := Sample{At: now, Member: t.member, Conn: t.conn, Subflow: t.subflow}
		keep := t.fn(&s)
		if len(r.samples[i]) < sampleCap {
			r.samples[i] = append(r.samples[i], s)
		} else {
			r.samplesDropped[i]++
		}
		if keep {
			live = append(live, t)
		}
	}
	// Clear deregistered tail slots so closures are not retained.
	for i := len(live); i < len(r.targets); i++ {
		r.targets[i] = target{}
	}
	r.targets = live
	if len(r.targets) > 0 {
		r.armNextTick()
	}
}

// TimerEvents returns how many sampler timer firings the recorder has
// processed; scenarios subtract it from the simulator's processed-event
// count so reported event totals match the untraced run.
func (r *Recorder) TimerEvents() uint64 {
	if r == nil {
		return 0
	}
	return r.timerEvents
}

// AppendEvents appends member's recorded events (oldest first) to dst and
// returns the extended slice. member is a global index.
func (r *Recorder) AppendEvents(dst []Event, member int) []Event {
	if r == nil {
		return dst
	}
	i := member - r.lo
	if i < 0 || i >= len(r.rings) {
		return dst
	}
	rg := &r.rings[i]
	for k := 0; k < rg.n; k++ {
		dst = append(dst, rg.buf[(rg.start+k)%len(rg.buf)])
	}
	return dst
}

// EventCount returns how many events member currently holds (bounded by the
// ring capacity).
func (r *Recorder) EventCount(member int) int {
	if r == nil {
		return 0
	}
	i := member - r.lo
	if i < 0 || i >= len(r.rings) {
		return 0
	}
	return r.rings[i].n
}

// Dropped returns how many of member's events were overwritten.
func (r *Recorder) Dropped(member int) uint64 {
	if r == nil {
		return 0
	}
	i := member - r.lo
	if i < 0 || i >= len(r.rings) {
		return 0
	}
	return r.rings[i].dropped
}

// SamplesDropped returns how many of member's samples the per-member cap
// turned away.
func (r *Recorder) SamplesDropped(member int) uint64 {
	if r == nil {
		return 0
	}
	i := member - r.lo
	if i < 0 || i >= len(r.samplesDropped) {
		return 0
	}
	return r.samplesDropped[i]
}

// Counters returns member's counter registry values.
func (r *Recorder) Counters(member int) [NumCounters]uint64 {
	if r == nil {
		return [NumCounters]uint64{}
	}
	i := member - r.lo
	if i < 0 || i >= len(r.counters) {
		return [NumCounters]uint64{}
	}
	return r.counters[i]
}

// Samples returns member's time series (sorted by time; one entry per watched
// subflow per tick). The slice is owned by the recorder.
func (r *Recorder) Samples(member int) []Sample {
	if r == nil {
		return nil
	}
	i := member - r.lo
	if i < 0 || i >= len(r.samples) {
		return nil
	}
	return r.samples[i]
}
