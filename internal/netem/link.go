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

// txEntry is one in-flight transmission in the link's burst FIFO. The wire
// size computed at Send time rides along to delivery, and the two sequence
// numbers pin the entry's virtual dequeue and real delivery to the exact
// (At, seq) positions the unbatched two-events-per-segment schedule would
// have used.
type txEntry struct {
	seg   *packet.Segment
	size  int
	done  time.Duration // serialization completes; bytes leave the queue
	at    time.Duration // delivery at the far end (done + Delay at Send time)
	dqSeq uint64        // reserved seq of the elided dequeue event
	dlSeq uint64        // seq of the delivery event
}

// Link is a unidirectional FIFO link with a finite drop-tail queue, a
// serialization rate and a propagation delay.
//
// The hot path is burst-mode: instead of scheduling two simulator events per
// segment (dequeue at serialization completion, delivery after propagation),
// the link keeps a FIFO of back-to-back transmissions and schedules a single
// delivery event for the head entry only. Dequeue completions are virtual —
// their seq is reserved but no event is queued; queue occupancy and the
// processed-event count are settled lazily, strictly ordered by (time, seq)
// against the running simulation, so every observable (admission decisions,
// QueueBytes, Sim.Processed) matches the unbatched schedule bit for bit. The
// wire times are untouched: busyUntil serialization math is exactly the
// per-segment computation, only the scheduler round-trips are batched away.
type Link struct {
	sim  *sim.Simulator
	cfg  LinkConfig
	dst  Receiver
	name string

	busyUntil   time.Duration
	queuedBytes int
	ordinal     uint64

	// fifo holds accepted transmissions in serialization order. head indexes
	// the next entry to deliver (a delivery event is pending iff
	// head < len(fifo)); undrained indexes the next entry whose virtual
	// dequeue has not yet been credited (undrained >= head at event
	// boundaries: an entry's dequeue is always ordered before its delivery).
	// It starts on fifoInline, so a link with at most fifoInlineLen
	// segments in flight never allocates one; a burst past that spills to
	// the heap by append and stays there.
	fifo       []txEntry
	head       int
	undrained  int
	fifoInline [fifoInlineLen]txEntry

	stats LinkStats

	// OnTransmit, if set, is invoked for every segment the link accepts
	// (after queue admission, before delivery). Traces use it.
	OnTransmit func(seg *packet.Segment)
}

// NewLink creates a link delivering to dst.
func NewLink(s *sim.Simulator, name string, cfg LinkConfig, dst Receiver) *Link {
	l := &Link{sim: s, cfg: cfg, dst: dst, name: name}
	l.fifo = l.fifoInline[:0]
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
	for l.undrained < len(l.fifo) {
		e := &l.fifo[l.undrained]
		if e.done > now || (e.done == now && e.dqSeq >= seq) {
			break
		}
		l.queuedBytes -= e.size
		l.undrained++
		l.sim.Processed++
	}
}

// wireSize returns the number of bytes the segment occupies on the wire.
func wireSize(seg *packet.Segment) int {
	return len(seg.Payload) + 20 + packet.OptionsWireLen(seg.Options) + WireOverheadBytes
}

// Send enqueues a segment for transmission. The segment is owned by the link
// afterwards; callers must Clone if they keep a reference. Dropped segments
// are released back to the segment pool.
func (l *Link) Send(seg *packet.Segment) {
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
	// first, then delivery), append to the burst FIFO, and arm the delivery
	// pump only when it is idle — one scheduler insertion replaces two, and
	// the closure-free ScheduleArgsAtSeq form is kept.
	dqSeq := l.sim.ReserveSeq()
	dlSeq := l.sim.ReserveSeq()
	l.fifo = append(l.fifo, txEntry{
		seg: seg, size: size,
		done: done, at: done + l.cfg.Delay,
		dqSeq: dqSeq, dlSeq: dlSeq,
	})
	if l.head == len(l.fifo)-1 {
		l.sim.ScheduleArgsAtSeq(done+l.cfg.Delay, dlSeq, deliverBurst, l, nil)
	}
}

// fifoInlineLen is the number of in-flight transmissions a link holds
// without a heap FIFO.
const fifoInlineLen = 16

// fifoCompactMin is the delivered-prefix length from which deliverBurst
// compacts the FIFO. The copy moves at most head entries and the next one is
// at least this many deliveries away, so it stays amortised O(1) per segment;
// the FIFO's capacity stays within this plus twice the peak in-flight count
// (doubled once by append) instead of growing to thousands of entries on a
// link that carries a handful of segments at a time.
const fifoCompactMin = 32

// deliverBurst fires at the head entry's delivery time with its reserved seq:
// it completes that transmission and re-arms for the next FIFO entry at its
// own pre-reserved (at, seq), so the interleaving with every other simulator
// event is identical to the unbatched per-segment schedule.
func deliverBurst(a, _ any) {
	l := a.(*Link)
	e := &l.fifo[l.head]
	l.drainDue() // the entry's own virtual dequeue is always ordered first
	l.stats.DeliveredBytes += uint64(e.size)
	seg := e.seg
	e.seg = nil
	l.head++
	if l.head < len(l.fifo) {
		if l.head >= fifoCompactMin && l.head*2 >= len(l.fifo) {
			// A continuously-busy link never fully drains; compact the
			// delivered prefix so the FIFO stays bounded by the in-flight
			// segment count.
			n := copy(l.fifo, l.fifo[l.head:])
			clearTail := l.fifo[n:]
			for i := range clearTail {
				clearTail[i] = txEntry{}
			}
			l.fifo = l.fifo[:n]
			l.undrained -= l.head
			l.head = 0
		}
		next := &l.fifo[l.head]
		l.sim.ScheduleArgsAtSeq(next.at, next.dlSeq, deliverBurst, l, nil)
	} else {
		// Fully delivered implies fully drained: each delivery settles its
		// own dequeue first, so both cursors sit at len(fifo).
		l.fifo = l.fifo[:0]
		l.head, l.undrained = 0, 0
	}
	l.dst.Receive(seg)
}

// Mbps converts a megabit-per-second figure to bits per second.
func Mbps(m float64) int64 { return int64(m * 1e6) }

// Kbps converts a kilobit-per-second figure to bits per second.
func Kbps(k float64) int64 { return int64(k * 1e3) }

// Gbps converts a gigabit-per-second figure to bits per second.
func Gbps(g float64) int64 { return int64(g * 1e9) }
