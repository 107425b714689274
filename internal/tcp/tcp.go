// Package tcp implements a single-path TCP endpoint on top of the emulated
// network. It provides the substrate the paper's MPTCP implementation builds
// on: the three-way handshake, cumulative acknowledgements, retransmission
// timeout with Jacobson/Karels RTT estimation, fast retransmit and NewReno
// recovery, receive-window flow control with window scaling, connection
// teardown, and buffer management.
//
// The endpoint exposes a small set of hooks (Hooks) through which the MPTCP
// layer in internal/core attaches per-segment option processing, redirects
// in-order payload to the connection-level reassembly queue and substitutes
// the shared connection-level receive window for the per-subflow one, and
// hands the endpoint the connection-level send queue to send from. With
// the default no-op hooks the endpoint behaves as ordinary single-path TCP
// and serves as the baseline in every experiment.
package tcp

import (
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/cc"
	"mptcpgo/internal/packet"
)

// State is the TCP connection state.
type State int

// TCP states (RFC 793).
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateListen:
		return "LISTEN"
	case StateSynSent:
		return "SYN_SENT"
	case StateSynReceived:
		return "SYN_RCVD"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait1:
		return "FIN_WAIT_1"
	case StateFinWait2:
		return "FIN_WAIT_2"
	case StateCloseWait:
		return "CLOSE_WAIT"
	case StateClosing:
		return "CLOSING"
	case StateLastAck:
		return "LAST_ACK"
	case StateTimeWait:
		return "TIME_WAIT"
	default:
		return "UNKNOWN"
	}
}

// Config carries endpoint parameters. The zero value is usable; defaults are
// filled in by WithDefaults.
type Config struct {
	// MSS is the maximum segment size in bytes (default 1460).
	MSS int
	// SendBufBytes bounds the send queue (unsent plus unacknowledged data).
	SendBufBytes int
	// RecvBufBytes bounds the receive buffer; it also bounds the advertised
	// window.
	RecvBufBytes int

	// MaxRTORetries tears the connection down after this many consecutive
	// retransmission timeouts without an intervening ACK (default 10, the
	// historical tcp_retries2 value). MPTCP subflows lower it so a dead path
	// is declared failed quickly and its unacknowledged data reinjected onto
	// surviving subflows. Negative disables the limit.
	MaxRTORetries int

	// ConnectionLevelWindow makes the endpoint ignore the peer's advertised
	// receive window when deciding how much to transmit: MPTCP subflows are
	// governed by the shared connection-level window instead (§3.3.1).
	ConnectionLevelWindow bool

	// Probe, when non-nil, receives loss-recovery and congestion-state
	// telemetry (see ProbeSink). It is set by the observability layer; nil
	// (the default) keeps every emission site a single branch.
	Probe ProbeSink
}

// CCState is the endpoint's coarse congestion phase, derived from the
// controller and the recovery machinery, for observability.
type CCState uint8

// Congestion phases.
const (
	CCSlowStart CCState = iota
	CCAvoidance
	CCRecovery
)

// String returns the phase name.
func (s CCState) String() string {
	switch s {
	case CCSlowStart:
		return "slowstart"
	case CCAvoidance:
		return "avoidance"
	case CCRecovery:
		return "recovery"
	default:
		return "unknown"
	}
}

// ProbeSink receives low-overhead endpoint telemetry when tracing is
// enabled. Implementations (the MPTCP subflow, which knows its connection
// and member identity) must be allocation-free: calls happen on the hot
// path, synchronously on the simulator goroutine.
type ProbeSink interface {
	// OnEndpointRTO reports a retransmission timeout: the consecutive
	// backoff count (1 for the first timeout of a run) and the resulting
	// backed-off RTO.
	OnEndpointRTO(e *Endpoint, backoff int, rto time.Duration)
	// OnEndpointFastRetransmit reports entry into fast retransmit.
	OnEndpointFastRetransmit(e *Endpoint)
	// OnEndpointCCState reports a congestion-phase transition.
	OnEndpointCCState(e *Endpoint, state CCState)
}

// WithDefaults returns the configuration with unset fields defaulted.
func (c Config) WithDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.SendBufBytes <= 0 {
		c.SendBufBytes = 256 << 10
	}
	if c.RecvBufBytes <= 0 {
		c.RecvBufBytes = 256 << 10
	}
	if c.MaxRTORetries == 0 {
		c.MaxRTORetries = 10
	}
	return c
}

// Timer constants: the floor of the computed retransmission timeout, the
// timeout before the first RTT sample, the cap of the backed-off timeout, and
// how long an endpoint lingers in TIME_WAIT.
const (
	minRTO     = 200 * time.Millisecond
	initialRTO = time.Second
	maxRTO     = 60 * time.Second
	timeWait   = 2 * time.Second
)

// windowShift returns the receive-window scale shift to advertise for a
// receive buffer of buf bytes: the smallest that lets the 16-bit window field
// cover the buffer, at most 14 (RFC 7323).
func windowShift(buf int) uint8 {
	shift := uint8(0)
	for (65535<<shift) < buf && shift < 14 {
		shift++
	}
	return shift
}

// Hooks is the extension interface the MPTCP layer implements for each
// subflow. All methods are called synchronously on the simulator goroutine.
type Hooks interface {
	// OnSegmentSent is invoked just before a segment is handed to the
	// interface; implementations append MPTCP options (DSS, DATA_ACK,
	// MP_CAPABLE echo, ADD_ADDR, ...). retransmission reports whether the
	// segment repeats previously sent sequence space.
	OnSegmentSent(e *Endpoint, seg *packet.Segment, retransmission bool)
	// OnSegmentReceived is invoked for every arriving segment before it is
	// processed, so mappings and data-level acknowledgements can be recorded
	// regardless of subflow-level ordering.
	OnSegmentReceived(e *Endpoint, seg *packet.Segment)
	// OnDataDelivered receives in-order subflow payload. relSeq is the
	// offset of data[0] from the peer's initial sequence number + 1, i.e.
	// the same coordinate space the DSS subflow offset uses.
	OnDataDelivered(e *Endpoint, relSeq uint32, data []byte)
	// OnStateChange reports endpoint state transitions.
	OnStateChange(e *Endpoint, old, new State)
	// OnSendSpaceAvailable is invoked whenever acknowledgements or window
	// updates may allow more data to be sent; the MPTCP scheduler uses it.
	OnSendSpaceAvailable(e *Endpoint)
	// AdvertiseWindow lets the hook substitute the connection-level receive
	// window (in bytes) for the subflow's own. ok=false keeps the
	// endpoint's computation.
	AdvertiseWindow(e *Endpoint) (win int, ok bool)
	// NewController supplies the congestion controller when the endpoint is
	// created (MPTCP subflows couple theirs); nil keeps the endpoint's NewReno.
	NewController(cfg cc.Config) cc.Controller
	// SendQueue supplies the queue the endpoint's chunks reference when the
	// endpoint is created; nil gives the endpoint a queue of its own. An
	// MPTCP subflow sends from its connection's: the connection appends to
	// and trims it, and feeds the endpoint through SendChunk.
	SendQueue() *buffer.SendQueue
}

// NopHooks is the default no-op hook set used by plain TCP endpoints.
type NopHooks struct{}

// OnSegmentSent implements Hooks.
func (NopHooks) OnSegmentSent(*Endpoint, *packet.Segment, bool) {}

// OnSegmentReceived implements Hooks.
func (NopHooks) OnSegmentReceived(*Endpoint, *packet.Segment) {}

// OnDataDelivered implements Hooks.
func (NopHooks) OnDataDelivered(*Endpoint, uint32, []byte) {}

// OnStateChange implements Hooks.
func (NopHooks) OnStateChange(*Endpoint, State, State) {}

// OnSendSpaceAvailable implements Hooks.
func (NopHooks) OnSendSpaceAvailable(*Endpoint) {}

// AdvertiseWindow implements Hooks.
func (NopHooks) AdvertiseWindow(*Endpoint) (int, bool) { return 0, false }

// NewController implements Hooks.
func (NopHooks) NewController(cc.Config) cc.Controller { return nil }

// SendQueue implements Hooks.
func (NopHooks) SendQueue() *buffer.SendQueue { return nil }

// Inline capacities of an endpoint's chunk queues and SACK ranges
// (Endpoint.sendQueueBuf), sized to what the bench/perf fleets were measured
// to hold and never a limit: MPTCP hands a chunk down only when it can be
// sent at once (one queued, plus a FIN), a flow inside its initial window has
// at most 11 unacknowledged, and two SACK-range insertions in three leave at
// most 4 ranges even behind corelink's overloaded core (8 would push the
// endpoint into the next size class).
const (
	sendQueueInline  = 2
	retransQInline   = 12
	sackRangesInline = 4
)

// chunk is one send-queue entry: at most one MSS of payload plus the options
// that must accompany it on the wire (for MPTCP, its data sequence mapping).
// SYN and FIN are represented as flag-only chunks so that the retransmission
// machinery handles them uniformly.
//
// A chunk does not hold payload bytes itself: it references the half-open
// range [payOff, payOff+payLen) of the endpoint's send queue (Endpoint.sndBuf)
// and holds the queue blocks under it (setRange, freeChunk). The bytes live
// exactly once on the sender — retransmissions copy them out of the queue
// into a fresh pool-owned segment payload. An MPTCP subflow's queue is its
// connection's, so there payOff is a data-sequence offset and the bytes are
// shared by every subflow that carries them.
type chunk struct {
	seq    packet.SeqNum
	payOff uint64 // absolute send-queue offset of the chunk's first payload byte
	payLen int    // payload length in bytes
	opts   []packet.Option
	syn    bool
	fin    bool
	// optsBuf backs opts for the usual single option, a DSS mapping.
	optsBuf [1]packet.Option

	// ownsOpts marks the option objects in opts as owned by this chunk:
	// when the chunk's retransmission lifetime ends (fully acknowledged and
	// popped from the queues) the endpoint recycles them onto its free
	// lists. Chunks that borrow another chunk's options (the zero-window
	// probe split) leave it false so the owner frees them exactly once.
	// Outgoing segments never alias these objects — makeSegment copies every
	// option into the segment's own arena — so recycling here cannot corrupt
	// in-flight traffic.
	ownsOpts bool

	sentAt        time.Duration
	transmissions int

	// sacked marks the chunk as selectively acknowledged by the peer; it is
	// skipped during loss recovery and not retransmitted.
	sacked bool
	// rtxEpoch records the recovery episode in which the chunk was last
	// retransmitted, so each hole is repaired at most once per episode.
	rtxEpoch int
}

// seqLen returns the amount of sequence space the chunk occupies.
func (c *chunk) seqLen() uint32 {
	n := uint32(c.payLen)
	if c.syn {
		n++
	}
	if c.fin {
		n++
	}
	return n
}

func (c *chunk) endSeq() packet.SeqNum { return c.seq.Add(c.seqLen()) }

// Stats aggregates per-endpoint counters used by experiments and tests.
type Stats struct {
	SegmentsSent     uint64
	SegmentsReceived uint64
	BytesSent        uint64
	BytesReceived    uint64
	BytesDelivered   uint64
	Retransmissions  uint64
	Timeouts         uint64
	FastRetransmits  uint64
	DupAcksReceived  uint64
	PersistProbes    uint64
}
