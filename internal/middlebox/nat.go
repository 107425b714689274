package middlebox

import (
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// NAT rewrites the client-side address (and optionally port) of traffic
// crossing the path, as a home gateway or carrier-grade NAT would. The paper
// notes that NATs are why the classical five-tuple cannot identify an MPTCP
// connection (§3.2) and why the server cannot usually open subflows toward
// the client.
type NAT struct {
	// PublicAddr is the address the client appears as on the server side.
	PublicAddr packet.Addr
	// RewritePorts, when true, also translates source ports.
	RewritePorts bool
	// nextPort allocates translated ports.
	nextPort uint16
	// forwardMap maps original (addr, port) to translated port and back.
	portOut map[packet.Endpoint]uint16
	portIn  map[uint16]packet.Endpoint
	// addrIn maps a translated flow back to the original client address when
	// ports are not rewritten.
	addrIn map[uint16]packet.Addr
}

// NewNAT creates a NAT presenting clients as publicAddr.
func NewNAT(publicAddr packet.Addr, rewritePorts bool) *NAT {
	return &NAT{
		PublicAddr:   publicAddr,
		RewritePorts: rewritePorts,
		nextPort:     20000,
		portOut:      make(map[packet.Endpoint]uint16),
		portIn:       make(map[uint16]packet.Endpoint),
		addrIn:       make(map[uint16]packet.Addr),
	}
}

// Process implements netem.Box.
func (n *NAT) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	if dir == netem.AtoB {
		orig := seg.Src
		port := orig.Port
		if n.RewritePorts {
			p, ok := n.portOut[orig]
			if !ok {
				n.nextPort++
				p = n.nextPort
				n.portOut[orig] = p
				n.portIn[p] = orig
			}
			port = p
		} else {
			n.addrIn[orig.Port] = orig.Addr
		}
		seg.Src = packet.Endpoint{Addr: n.PublicAddr, Port: port}
		ctx.Send(dir, seg)
		return
	}
	// Reverse direction: translate the destination back to the client.
	dst := seg.Dst
	if n.RewritePorts {
		if orig, ok := n.portIn[dst.Port]; ok {
			seg.Dst = orig
		}
	} else if addr, ok := n.addrIn[dst.Port]; ok {
		seg.Dst = packet.Endpoint{Addr: addr, Port: dst.Port}
	}
	ctx.Send(dir, seg)
}
