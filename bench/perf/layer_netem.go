package main

import (
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
)

var netemDrivers = []driver{
	{ns: "netem.link_transit_ns", allocs: "netem.link_transit_allocs", ops: 400_000, run: netemLinkTransit},
	{ns: "netem.host_demux_ns", ops: 800_000, run: netemHostDemux},
}

var (
	driverSrc = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 40000}
	driverDst = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 2), Port: 80}
)

// dataSegment builds a pooled full-size data segment from src to dst.
func dataSegment(src, dst packet.Endpoint, seq uint32) *packet.Segment {
	seg := packet.NewSegment()
	seg.Src, seg.Dst = src, dst
	seg.Seq = packet.SeqNum(seq)
	seg.Flags = packet.FlagACK | packet.FlagPSH
	seg.AttachPayload(pool.Bytes(1460))
	return seg
}

// netemLinkTransit pushes full-size segments through one 10 Gbps link into
// a receiver that releases them: serialisation, queueing, the delivery event
// and the hand-off, without any endpoint behind it.
func netemLinkTransit(n int) (int, error) {
	s := sim.New(1)
	delivered := 0
	link := netem.NewLink(s, "drv", netem.LinkConfig{RateBps: netem.Gbps(10), Delay: 100 * time.Microsecond, QueueBytes: 1 << 20},
		netem.ReceiverFunc(func(seg *packet.Segment) {
			delivered++
			seg.Release()
		}))
	const burst = 64
	for sent := 0; sent < n; sent += burst {
		for i := 0; i < burst; i++ {
			link.Send(dataSegment(driverSrc, driverDst, uint32(sent+i)))
		}
		if err := s.Run(); err != nil {
			return 0, err
		}
	}
	return delivered, nil
}

// sinkHandler is a registered connection that does nothing with a segment.
type sinkHandler struct{ got int }

func (h *sinkHandler) HandleSegment(*netem.Interface, *packet.Segment) { h.got++ }

// netemHostDemux delivers segments for 64 registered connections to a host
// interface: the four-tuple lookup and the dispatch to the handler.
func netemHostDemux(n int) (int, error) {
	s := sim.New(1)
	host := netem.NewHost(s, "drv")
	ifc := host.AddInterface(driverDst.Addr)
	const conns = 64
	sink := &sinkHandler{}
	remotes := make([]packet.Endpoint, conns)
	for i := range remotes {
		remotes[i] = packet.Endpoint{Addr: driverSrc.Addr, Port: uint16(40000 + i)}
		if err := host.Register(driverDst, remotes[i], sink); err != nil {
			return 0, err
		}
	}
	for i := 0; i < n; i++ {
		// Two segments per connection in a row, so the host's last-match
		// shortcut and its map lookup are both exercised.
		ifc.Receive(dataSegment(remotes[(i/2)%conns], driverDst, uint32(i)))
	}
	return sink.got, nil
}
