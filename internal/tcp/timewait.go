package tcp

import (
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// timeWaitRecord is what is left of an endpoint in TIME_WAIT, in the manner
// of Linux's tcp_timewait_sock: the endpoint hands its four-tuple to the
// record at the FIN exchange and closes, so the connection above it (the
// MPTCP Connection and Subflow, their queues and timers) is finished and
// freed then, not 2*MSL later. For the rest of the 2*MSL the record answers
// for the tuple as the TIME_WAIT endpoint did:
//   - a segment with payload or a FIN (a retransmitted FIN, an old data
//     segment) draws the endpoint's last ACK again, timestamps echoed as the
//     endpoint would have echoed them;
//   - an acceptable RST ends it early;
//   - anything else is dropped.
//
// It holds the tuple and the scalars that ACK is made of. Records come from
// the simulator's free lists (freeLists.timeWait), so churn costs a slab now
// and then, not an object per flow.
type timeWaitRecord struct {
	iface         *netem.Interface
	local, remote packet.Endpoint

	sndNxt, rcvNxt packet.SeqNum
	// rcvWnd is the receive buffer the endpoint's RST acceptability test
	// spanned (Config.RecvBufBytes).
	rcvWnd uint32
	// window is the window field of the endpoint's last ACK.
	window   uint16
	peerTSOK bool
	tsRecent uint32
	// dataAck is the DSS DATA_ACK the endpoint's last ACK carried, when
	// hasDataAck (an MPTCP subflow that had not fallen back).
	hasDataAck bool
	dataAck    packet.DataSeq

	// timer ends TIME_WAIT. It is armed where the endpoint entered it, so
	// the expiry keeps its time and its place in the event order.
	timer sim.Timer
}

// newTimeWaitRecord takes a record from the free lists and arms its expiry.
func newTimeWaitRecord(s *sim.Simulator, free *freeLists) *timeWaitRecord {
	r := free.timeWait.Get()
	r.timer.Init(s, func(a any) { a.(*timeWaitRecord).end() }, r)
	r.timer.Reset(timeWait)
	return r
}

// take copies from e what the record answers with. e has sent its last ACK.
func (r *timeWaitRecord) take(e *Endpoint) {
	r.iface, r.local, r.remote = e.iface, e.local, e.remote
	r.sndNxt, r.rcvNxt, r.rcvWnd = e.sndNxt, e.rcvNxt, uint32(e.cfg.RecvBufBytes)
	r.window, r.peerTSOK, r.tsRecent = e.lastAckWindow, e.peerTSOK, e.tsRecent
	r.hasDataAck, r.dataAck = e.lastAckHasDataAck, e.lastAckDataAck
}

// HandleSegment implements netem.SegmentHandler.
func (r *timeWaitRecord) HandleSegment(_ *netem.Interface, seg *packet.Segment) {
	if seg.Flags.Has(packet.FlagRST) {
		if seg.Seq == r.rcvNxt || inReceiveWindow(seg, r.rcvNxt, r.rcvWnd) {
			r.end()
		}
		return
	}
	if ts, ok := seg.FindOption(packet.OptTimestamps).(*packet.TimestampsOption); ok {
		r.peerTSOK, r.tsRecent = true, ts.Val
	}
	if len(seg.Payload) > 0 || seg.Flags.Has(packet.FlagFIN) {
		r.sendAck()
	}
}

// sendAck repeats the endpoint's last ACK, option for option: timestamps,
// then the DSS DATA_ACK its hooks added.
func (r *timeWaitRecord) sendAck() {
	seg := packet.NewSegment()
	seg.Src, seg.Dst = r.local, r.remote
	seg.Seq, seg.Ack, seg.Flags = r.sndNxt, r.rcvNxt, packet.FlagACK
	seg.Window = r.window
	if r.peerTSOK {
		seg.AppendTimestamps(uint32(r.iface.Host().Sim().Now()/time.Millisecond), r.tsRecent)
	}
	if r.hasDataAck {
		dss := seg.AppendDSS()
		dss.HasDataACK, dss.DataACK = true, r.dataAck
	}
	r.iface.Send(seg)
}

// end gives the tuple up: TIME_WAIT is over.
func (r *timeWaitRecord) end() {
	h := r.iface.Host()
	h.Unregister(r.local, r.remote)
	r.release(sim.Local[freeLists](h.Sim()))
}

// release stops the record's timer and returns it to the free lists.
func (r *timeWaitRecord) release(free *freeLists) {
	r.timer.Stop()
	*r = timeWaitRecord{}
	free.timeWait.Put(r)
}
