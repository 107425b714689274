// Package netem emulates the network underneath the TCP/MPTCP endpoints:
// point-to-point links with configurable rate, propagation delay, queue size
// and loss, hosts with multiple interfaces, bidirectional paths that may have
// middlebox chains attached, and topology builders for the scenarios
// evaluated in the paper (WiFi+3G phone, asymmetric and symmetric gigabit
// hosts, 10G LAN).
package netem

import (
	"time"

	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// WireOverheadBytes approximates the per-packet IP + Ethernet framing
// overhead added on the wire in addition to the TCP header and options.
const WireOverheadBytes = 38

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	// RateBps is the link rate in bits per second; zero means infinitely
	// fast (no serialization delay).
	RateBps int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes is the buffer in front of the link; zero means unlimited.
	// This is where the 3G "2 second buffer" bufferbloat of the paper's
	// experiments lives.
	QueueBytes int
	// LossRate is the probability that a packet is dropped by the link
	// (independent random losses).
	LossRate float64
}

// LinkStats counts what the link did.
type LinkStats struct {
	SentPackets    uint64
	SentBytes      uint64
	DroppedQueue   uint64
	DroppedRandom  uint64
	DeliveredBytes uint64
	MaxQueueBytes  int
	// OfferedBytes counts the wire bytes of every segment presented to the
	// link, including segments later dropped by loss or queue overflow. The
	// capacity layer reads it as the demand signal for a shared bottleneck:
	// under a rate cap, arrivals (retransmissions, window growth into a full
	// queue) exceed departures, so offered > sent reveals unmet demand.
	OfferedBytes uint64
}

// Receiver consumes segments at the far end of a link.
type Receiver interface {
	Receive(seg *packet.Segment)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(seg *packet.Segment)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(seg *packet.Segment) { f(seg) }

// Link is a unidirectional FIFO link with a finite drop-tail queue, a
// serialization rate and a propagation delay.
//
// The hot path is burst-mode: instead of scheduling two simulator events per
// segment (dequeue at serialization completion, delivery after propagation),
// the link keeps a FIFO of back-to-back transmissions, threaded through the
// segments themselves, and schedules a single delivery event for the head
// segment only. Dequeue completions are virtual — their seq is reserved but no
// event is queued; queue occupancy and the processed-event count are settled
// lazily, strictly ordered by (time, seq) against the running simulation, so
// every observable (admission decisions, QueueBytes, Sim.Processed) matches
// the unbatched schedule bit for bit. The wire times are untouched: busyUntil
// serialization math is exactly the per-segment computation, only the
// scheduler round-trips are batched away.
type Link struct {
	sim  *sim.Simulator
	cfg  LinkConfig
	dst  Receiver
	name string

	busyUntil   time.Duration
	queuedBytes int
	ordinal     uint64

	// The FIFO of accepted transmissions in serialization order is threaded
	// through the segments' Hop.Next. head is the next segment to deliver (a
	// delivery event is pending iff head != nil), tail the last one
	// accepted, and undrained the first whose virtual dequeue has not yet
	// been credited, nil once every one has (at event boundaries undrained
	// is never head: a segment's dequeue is always ordered before its
	// delivery).
	head, tail, undrained *packet.Segment

	stats LinkStats

	// OnTransmit, if set, is invoked for every segment the link accepts
	// (after queue admission, before delivery). Traces use it.
	OnTransmit func(seg *packet.Segment)
}

// NewLink creates a link delivering to dst.
func NewLink(s *sim.Simulator, name string, cfg LinkConfig, dst Receiver) *Link {
	l := &Link{sim: s, cfg: cfg, dst: dst, name: name}
	s.RegisterSettler(l)
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// SetConfig replaces the link configuration (used to model path changes such
// as a WiFi link degrading mid-connection).
func (l *Link) SetConfig(cfg LinkConfig) { l.cfg = cfg }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueBytes returns the current queue occupancy.
func (l *Link) QueueBytes() int {
	l.drainDue()
	return l.queuedBytes
}

// drainDue credits every virtual dequeue ordered strictly before the point
// the simulation has reached, exactly when the elided per-segment dequeue
// events would have fired.
func (l *Link) drainDue() { l.SettleAt(l.sim.Now(), l.sim.RunningSeq()) }

// SettleAt implements sim.Settler: (now, seq) is the exclusive upper bound of
// event execution, and every virtual dequeue with (done, dqSeq) strictly
// before it fires now — releasing its bytes from the queue and crediting the
// event it replaced to the simulator's processed count.
func (l *Link) SettleAt(now time.Duration, seq uint64) {
	for e := l.undrained; e != nil; e = l.undrained {
		if e.Hop.Done > now || (e.Hop.Done == now && e.Hop.Seq >= seq) {
			break
		}
		l.queuedBytes -= e.Hop.Size
		l.undrained = e.Hop.Next
		l.sim.Processed++
	}
}

// wireSize returns the number of bytes the segment occupies on the wire.
func wireSize(seg *packet.Segment) int {
	return len(seg.Payload) + 20 + packet.OptionsWireLen(seg.Options) + WireOverheadBytes
}

// Send enqueues a segment for transmission. The segment is owned by the link
// afterwards; callers must Clone if they keep a reference. Dropped segments
// are released back to the segment pool. A segment another link still holds
// (its Hop is not zero) panics: it would cross-wire the two FIFOs.
func (l *Link) Send(seg *packet.Segment) {
	if seg.Hop != (packet.Hop{}) {
		panic("netem: segment sent on " + l.name + " while a link still holds it")
	}
	if l.dst == nil {
		seg.Release()
		return
	}
	l.drainDue() // queue occupancy must be current for the admission check
	size := wireSize(seg)
	l.stats.OfferedBytes += uint64(size)

	if l.cfg.LossRate > 0 && l.sim.RNG().Float64() < l.cfg.LossRate {
		l.stats.DroppedRandom++
		seg.Release()
		return
	}
	if l.cfg.QueueBytes > 0 && l.queuedBytes+size > l.cfg.QueueBytes {
		l.stats.DroppedQueue++
		seg.Release()
		return
	}

	l.queuedBytes += size
	if l.queuedBytes > l.stats.MaxQueueBytes {
		l.stats.MaxQueueBytes = l.queuedBytes
	}
	l.ordinal++
	seg.Ordinal = l.ordinal
	l.stats.SentPackets++
	l.stats.SentBytes += uint64(size)
	if l.OnTransmit != nil {
		l.OnTransmit(seg)
	}

	now := l.sim.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txTime := time.Duration(0)
	if l.cfg.RateBps > 0 {
		txTime = time.Duration(float64(size*8) / float64(l.cfg.RateBps) * float64(time.Second))
	}
	done := start + txTime
	l.busyUntil = done

	// Reserve the seqs the unbatched schedule would have consumed (dequeue
	// first, then delivery, so delivery's is dqSeq+1), thread the segment
	// onto the FIFO, and arm the delivery pump only when it is idle — one
	// scheduler insertion replaces two, and the closure-free
	// ScheduleArgsAtSeq form is kept.
	dqSeq := l.sim.ReserveSeq()
	l.sim.ReserveSeq()
	seg.Hop = packet.Hop{Size: size, Done: done, At: done + l.cfg.Delay, Seq: dqSeq}
	if l.undrained == nil {
		l.undrained = seg
	}
	if l.tail == nil {
		l.head = seg
		l.sim.ScheduleArgsAtSeq(seg.Hop.At, dqSeq+1, deliverBurst, l, nil)
	} else {
		l.tail.Hop.Next = seg
	}
	l.tail = seg
}

// deliverBurst fires at the head segment's delivery time with its reserved
// seq: it completes that transmission and re-arms for the next segment at its
// own pre-reserved (at, seq), so the interleaving with every other simulator
// event is identical to the unbatched per-segment schedule.
func deliverBurst(a, _ any) {
	l := a.(*Link)
	seg := l.head
	l.drainDue() // the segment's own virtual dequeue is always ordered first
	l.stats.DeliveredBytes += uint64(seg.Hop.Size)
	l.head = seg.Hop.Next
	if next := l.head; next != nil {
		l.sim.ScheduleArgsAtSeq(next.Hop.At, next.Hop.Seq+1, deliverBurst, l, nil)
	} else {
		// Fully delivered implies fully drained: each delivery settles its
		// own dequeue first, so undrained is nil too.
		l.tail = nil
	}
	seg.Hop = packet.Hop{}
	l.dst.Receive(seg)
}

// Mbps converts a megabit-per-second figure to bits per second.
func Mbps(m float64) int64 { return int64(m * 1e6) }

// Kbps converts a kilobit-per-second figure to bits per second.
func Kbps(k float64) int64 { return int64(k * 1e3) }

// Gbps converts a gigabit-per-second figure to bits per second.
func Gbps(g float64) int64 { return int64(g * 1e9) }
