package packet

import (
	"sync"

	"mptcpgo/internal/pool"
)

// Segment recycling. Every data segment the emulator moves costs, without
// recycling, at least two garbage-collected allocations (the Segment struct
// and its payload buffer) at every hop that copies it. The pool below, with
// the explicit Release calls at the segment sinks (link drops, middlebox
// consumption, post-dispatch on the receiving host), removes both from the
// steady-state hot path.
//
// Ownership discipline (documented in DESIGN.md): a Segment is owned by
// exactly one component at a time. The sender creates it, Interface.Send
// passes it to the link, the link either drops it (releasing it) or delivers
// it to the path; middlebox elements own the segments passed to Process and
// must Release any segment they consume rather than forward; the receiving
// host releases the segment after HandleSegment returns. Nothing may retain
// a Segment — or any slice of its Payload — past its ownership window; use
// Clone (or copy the bytes out) to keep data.

var segPool = sync.Pool{New: newPooledSegment}

// pooledSegment is what a pool miss allocates: the segment, its option arena
// and the first backing store of its option list as one heap object, so a
// fresh segment costs one allocation however many options it carries (up to
// inlineOptions of them). The segment points into its own struct; the arena
// and the list live, and are collected, with it.
type pooledSegment struct {
	seg   Segment
	arena optionArena
	opts  [inlineOptions]Option
}

// inlineOptions covers a SYN's five options (MSS, SACK-permitted,
// timestamps, window scale, MP_CAPABLE) and a data segment's DSS, SACK and
// timestamps with room to spare.
const inlineOptions = 6

func newPooledSegment() any {
	p := new(pooledSegment)
	p.seg.optArena = &p.arena
	p.seg.Options = p.opts[:0]
	return &p.seg
}

// NewSegment returns a zeroed Segment from the pool. The segment's Options
// slice retains recycled capacity; all other fields are zero. It is the one
// way to build a segment outside this package: a literal has no arena and
// no option store, and once released into the pool it makes its next user
// pay for both.
func NewSegment() *Segment {
	s := segPool.Get().(*Segment)
	s.released = false
	clearPoison(s)
	return s
}

// AttachPayload sets the segment payload to buf and records that buf is a
// pool-owned buffer: Release will recycle it. buf must come from pool.Bytes
// or pool.Copy and ownership transfers to the segment.
func (s *Segment) AttachPayload(buf []byte) { s.AttachPayloadFrom(nil, buf) }

// AttachPayloadFrom is AttachPayload for a buffer taken from l, the front of
// the simulator the segment lives and dies on: Release recycles it there. A
// nil l is the shared pool.
func (s *Segment) AttachPayloadFrom(l *pool.Local, buf []byte) {
	s.Payload = buf
	s.ownsPayload = true
	s.payloadFrom = l
}

// Release returns the segment (and its payload buffer, when pool-owned) to
// the pools. The caller must not touch the segment afterwards. Releasing a
// segment twice panics: it would put the same pointer into the pool twice
// and silently cross-wire two future segments.
func (s *Segment) Release() {
	if s == nil {
		return
	}
	if s.released {
		panic("packet: Segment released twice")
	}
	if s.Hop.Size != 0 {
		panic("packet: Segment released while a link holds it")
	}
	if s.ownsPayload {
		s.payloadFrom.Recycle(s.Payload)
	}
	opts := s.Options[:0]
	arena := s.optArena
	if arena != nil {
		arena.reset()
	}
	*s = Segment{Options: opts, optArena: arena, released: true}
	poisonReleased(s)
	segPool.Put(s)
}
