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
	// Process handles one segment travelling in dir and returns the
	// segments to forward onward (possibly none, possibly several). The
	// context lets elements inject segments of their own (e.g. a proxy
	// generating ACKs toward the sender).
	Process(ctx BoxContext, dir Direction, seg *packet.Segment) []*packet.Segment
}

// BoxContext is the environment a middlebox element runs in.
type BoxContext interface {
	// Now returns the current simulation time.
	Now() time.Duration
	// Inject sends a segment in the given direction from the middlebox's
	// position on the path, bypassing the elements the segment has already
	// traversed.
	Inject(dir Direction, seg *packet.Segment)
	// Sim returns the simulator, for elements that need timers.
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
// optional middlebox chain. Elements are applied in order for AtoB traffic
// and in reverse order for BtoA traffic, as they would be for a physical
// chain of boxes.
type Path struct {
	sim    *sim.Simulator
	name   string
	a, b   *Interface
	linkAB *Link
	linkBA *Link
	boxes  []Box
	down   bool
}

// NewPath wires interfaces a and b together with the given configuration.
func NewPath(s *sim.Simulator, name string, a, b *Interface, cfg PathConfig) *Path {
	p := &Path{sim: s, name: name, a: a, b: b}
	p.linkAB = NewLink(s, name+"/ab", cfg.AB, ReceiverFunc(func(seg *packet.Segment) {
		p.arrive(AtoB, seg)
	}))
	p.linkBA = NewLink(s, name+"/ba", cfg.BA, ReceiverFunc(func(seg *packet.Segment) {
		p.arrive(BtoA, seg)
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
func (p *Path) AddBox(b Box) { p.boxes = append(p.boxes, b) }

// SetDown marks the path as failed; segments in either direction are
// silently discarded (models the "subflow fails silently" scenarios of
// §3.3.1 and mobility events).
func (p *Path) SetDown(down bool) { p.down = down }

// arrive runs the middlebox chain at the far end of a link and delivers the
// result to the destination interface.
func (p *Path) arrive(dir Direction, seg *packet.Segment) {
	if p.down {
		seg.Release()
		return
	}
	if len(p.boxes) == 0 {
		// Box-free paths (the common case) deliver directly; the chain walk
		// below would allocate a slice per segment for nothing.
		p.destination(dir).Receive(seg)
		return
	}
	segs := p.runChain(dir, 0, seg)
	for _, s := range segs {
		p.destination(dir).Receive(s)
	}
}

func (p *Path) destination(dir Direction) *Interface {
	if dir == AtoB {
		return p.b
	}
	return p.a
}

// runChain applies boxes starting at index from (in chain order for AtoB,
// reverse order for BtoA).
func (p *Path) runChain(dir Direction, from int, seg *packet.Segment) []*packet.Segment {
	segs := []*packet.Segment{seg}
	n := len(p.boxes)
	for i := from; i < n; i++ {
		box := p.boxAt(dir, i)
		var next []*packet.Segment
		for _, s := range segs {
			out := box.Process(&boxCtx{path: p, dir: dir, index: i}, dir, s)
			next = append(next, out...)
		}
		segs = next
		if len(segs) == 0 {
			break
		}
	}
	return segs
}

// boxAt returns the i-th element along the given direction.
func (p *Path) boxAt(dir Direction, i int) Box {
	if dir == AtoB {
		return p.boxes[i]
	}
	return p.boxes[len(p.boxes)-1-i]
}

// boxCtx is the context of the element at position index along dir.
type boxCtx struct {
	path  *Path
	dir   Direction
	index int
}

// Now implements BoxContext.
func (c *boxCtx) Now() time.Duration { return c.path.sim.Now() }

// Sim implements BoxContext.
func (c *boxCtx) Sim() *sim.Simulator { return c.path.sim }

// Inject implements BoxContext. Injected segments traverse the remaining
// elements toward the destination of dir and are then delivered.
func (c *boxCtx) Inject(dir Direction, seg *packet.Segment) {
	p := c.path
	if p.down {
		seg.Release()
		return
	}
	// The injecting element sits at position index along its own direction;
	// the elements downstream of it along dir start right after it, which
	// seen from the other end of the chain is len(boxes)-index.
	start := c.index + 1
	if dir != c.dir {
		start = len(p.boxes) - c.index
	}
	segs := p.runChain(dir, start, seg)
	for _, s := range segs {
		p.destination(dir).Receive(s)
	}
}
