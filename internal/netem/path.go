package netem

import (
	"time"

	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// Direction identifies which way a segment travels across a path.
type Direction int

// Path directions.
const (
	// AtoB is the direction from the path's A interface to its B interface
	// (conventionally client to server).
	AtoB Direction = iota
	// BtoA is the reverse direction.
	BtoA
)

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == AtoB {
		return BtoA
	}
	return AtoB
}

// String renders the direction.
func (d Direction) String() string {
	if d == AtoB {
		return "a->b"
	}
	return "b->a"
}

// Box is an on-path middlebox element. Implementations live in the middlebox
// package (NAT, sequence rewriting, option stripping, segment splitting,
// coalescing, proactive ACKing, payload modification).
type Box interface {
	// Process handles one segment travelling in dir. The element owns seg
	// until it passes it on with ctx.Send or releases it; it may send any
	// number of segments, in either direction, now or from a timer.
	Process(ctx BoxContext, dir Direction, seg *packet.Segment)
}

// BoxContext is the environment a middlebox element runs in.
type BoxContext interface {
	// Send passes seg on from the element's position on the path: to the
	// next element along dir, or to dir's destination interface when the
	// element is the last one. The segment is processed before Send
	// returns, so the element no longer owns it afterwards.
	Send(dir Direction, seg *packet.Segment)
	// Sim returns the simulator, for the clock and for timers.
	Sim() *sim.Simulator
}

// PathConfig describes both directions of a path.
type PathConfig struct {
	AB LinkConfig
	BA LinkConfig
}

// SymmetricPath returns a configuration with identical properties in both
// directions.
func SymmetricPath(rateBps int64, delay time.Duration, queueBytes int, loss float64) PathConfig {
	lc := LinkConfig{RateBps: rateBps, Delay: delay, QueueBytes: queueBytes, LossRate: loss}
	return PathConfig{AB: lc, BA: lc}
}

// Path is a bidirectional point-to-point path between two interfaces with an
// optional middlebox chain. The chain is kept in A-to-B order: AtoB traffic
// meets its elements first to last and BtoA traffic last to first, as it
// would a physical chain of boxes.
type Path struct {
	sim    *sim.Simulator
	name   string
	a, b   *Interface
	linkAB *Link
	linkBA *Link
	boxes  []*element
	down   bool
}

// NewPath wires interfaces a and b together with the given configuration.
func NewPath(s *sim.Simulator, name string, a, b *Interface, cfg PathConfig) *Path {
	p := &Path{sim: s, name: name, a: a, b: b}
	p.linkAB = NewLink(s, name+"/ab", cfg.AB, ReceiverFunc(func(seg *packet.Segment) {
		p.pass(AtoB, 0, seg)
	}))
	p.linkBA = NewLink(s, name+"/ba", cfg.BA, ReceiverFunc(func(seg *packet.Segment) {
		p.pass(BtoA, len(p.boxes)-1, seg)
	}))
	a.out = p.linkAB
	a.path = p
	b.out = p.linkBA
	b.path = p
	return p
}

// Name returns the path name.
func (p *Path) Name() string { return p.name }

// A returns the path's A-side interface.
func (p *Path) A() *Interface { return p.a }

// B returns the path's B-side interface.
func (p *Path) B() *Interface { return p.b }

// Peer returns the interface at the opposite end of the path from ifc, or
// nil when ifc is not one of the path's endpoints.
func (p *Path) Peer(ifc *Interface) *Interface {
	switch ifc {
	case p.a:
		return p.b
	case p.b:
		return p.a
	}
	return nil
}

// LinkAB returns the A-to-B link.
func (p *Path) LinkAB() *Link { return p.linkAB }

// LinkBA returns the B-to-A link.
func (p *Path) LinkBA() *Link { return p.linkBA }

// AddBox appends a middlebox element to the chain.
func (p *Path) AddBox(b Box) {
	p.boxes = append(p.boxes, &element{path: p, index: len(p.boxes), box: b})
}

// SetDown marks the path as failed; segments in either direction are
// silently discarded (models the "subflow fails silently" scenarios of
// §3.3.1 and mobility events).
func (p *Path) SetDown(down bool) { p.down = down }

// pass hands seg to the chain element at index i, or to dir's destination
// interface once i has left the chain at either end.
func (p *Path) pass(dir Direction, i int, seg *packet.Segment) {
	if p.down {
		seg.Release()
		return
	}
	if i < 0 || i >= len(p.boxes) {
		p.destination(dir).Receive(seg)
		return
	}
	e := p.boxes[i]
	e.box.Process(e, dir, seg)
}

func (p *Path) destination(dir Direction) *Interface {
	if dir == AtoB {
		return p.b
	}
	return p.a
}

// element is a box at its index in the chain; it is the box's BoxContext.
type element struct {
	path  *Path
	index int
	box   Box
}

// Sim implements BoxContext.
func (e *element) Sim() *sim.Simulator { return e.path.sim }

// Send implements BoxContext: the next element is index+1 for AtoB traffic
// and index-1 for BtoA traffic.
func (e *element) Send(dir Direction, seg *packet.Segment) {
	next := e.index + 1
	if dir == BtoA {
		next = e.index - 1
	}
	e.path.pass(dir, next, seg)
}
