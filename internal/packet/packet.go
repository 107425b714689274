// Package packet models TCP segments and MPTCP options.
//
// Segments are carried through the emulated network as structured values, but
// the package also implements the full RFC 793 / RFC 6824 wire format
// (Encode/Decode) so that codec behaviour — option space limits, padding,
// checksums — is exercised for real. Middlebox models operate on Segment
// values exactly the way on-path boxes operate on the wire representation.
package packet

import (
	"fmt"
	"strings"
	"time"

	"mptcpgo/internal/pool"
)

// SeqNum is a 32-bit TCP sequence number with wrap-around comparison
// semantics.
type SeqNum uint32

// Add returns the sequence number advanced by n bytes (mod 2^32).
func (s SeqNum) Add(n uint32) SeqNum { return s + SeqNum(n) }

// LessThan reports whether s precedes t in sequence space.
func (s SeqNum) LessThan(t SeqNum) bool { return int32(t-s) > 0 }

// LessThanEq reports whether s precedes or equals t.
func (s SeqNum) LessThanEq(t SeqNum) bool { return s == t || s.LessThan(t) }

// InRange reports whether s lies in the half-open interval [lo, hi).
func (s SeqNum) InRange(lo, hi SeqNum) bool {
	return lo.LessThanEq(s) && s.LessThan(hi)
}

// DiffFrom returns the signed distance s-t in sequence space.
func (s SeqNum) DiffFrom(t SeqNum) int32 { return int32(s - t) }

// DataSeq is a 64-bit MPTCP data-level sequence number. The connection-level
// sequence space is 64 bits wide; the DSS option may carry either the full 64
// bits or the lower 32.
type DataSeq uint64

// Flags is the set of TCP header flags.
type Flags uint8

// TCP header flags.
const (
	FlagFIN Flags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Has reports whether all flags in f are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// String renders flags in tcpdump-like notation.
func (f Flags) String() string {
	var b strings.Builder
	add := func(mask Flags, s string) {
		if f&mask != 0 {
			b.WriteString(s)
		}
	}
	add(FlagSYN, "S")
	add(FlagFIN, "F")
	add(FlagRST, "R")
	add(FlagPSH, "P")
	add(FlagACK, ".")
	add(FlagURG, "U")
	add(FlagECE, "E")
	add(FlagCWR, "W")
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// Addr is an IPv4-style host address used by the emulated network.
type Addr uint32

// MakeAddr builds an address from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Endpoint is an (address, port) pair.
type Endpoint struct {
	Addr Addr
	Port uint16
}

// String renders the endpoint as addr:port.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// FourTuple identifies a subflow on the wire.
type FourTuple struct {
	Src Endpoint
	Dst Endpoint
}

// Reverse returns the tuple seen from the other direction.
func (t FourTuple) Reverse() FourTuple { return FourTuple{Src: t.Dst, Dst: t.Src} }

// String renders the tuple as src->dst.
func (t FourTuple) String() string { return fmt.Sprintf("%s->%s", t.Src, t.Dst) }

// Segment is a TCP segment as it travels through the emulated network.
type Segment struct {
	Src Endpoint
	Dst Endpoint

	Seq    SeqNum
	Ack    SeqNum
	Flags  Flags
	Window uint16

	// Options carries TCP options. Middleboxes may remove or alter entries.
	Options []Option

	// Payload is the segment's application data. Slices are never shared
	// between in-flight copies; use Clone when duplicating.
	Payload []byte

	// SentAt records the simulation time at which the segment was last
	// transmitted by the sending host (used for RTT sampling and tracing).
	SentAt time.Duration

	// Ordinal is a per-link monotonically increasing identifier assigned at
	// enqueue time, useful for traces and deterministic tie-breaking.
	Ordinal uint64

	// Hop is the transmission state of the link that holds the segment, and
	// only that link touches it. It is zero whenever no link holds the
	// segment: the link clears it before delivery, Release zeroes it, and
	// neither CloneHeader nor the wire codec copies it.
	Hop Hop

	// payloadFrom is where Release recycles an owned payload: the pool.Local
	// it was taken from (AttachPayloadFrom), nil for the shared pool.
	payloadFrom *pool.Local
	// ownsPayload marks Payload as a pool-owned buffer that Release will
	// recycle (see AttachPayload in pool.go).
	ownsPayload bool
	// released guards against double-release of pooled segments.
	released bool

	// optArena is the segment's inline option storage (see arena.go). A
	// pooled segment is allocated together with it and keeps it across pool
	// reuses; Release resets it, which invalidates every option pointer
	// handed out for this segment's lifetime.
	optArena *optionArena
}

// Hop is one link's record of a segment it is transmitting: the link threads
// its FIFO through Next, so a queue costs nothing beyond the segments it
// holds. Size is the wire size, never 0 while a link holds the segment.
type Hop struct {
	Next *Segment      // the segment behind this one on the same link
	Size int           // wire bytes the segment occupies in the queue
	Done time.Duration // serialization completes; the bytes leave the queue
	At   time.Duration // delivery at the far end
	Seq  uint64        // reserved seq of the elided dequeue; delivery's is Seq+1
}

// Tuple returns the segment's four-tuple.
func (s *Segment) Tuple() FourTuple { return FourTuple{Src: s.Src, Dst: s.Dst} }

// Len returns the payload length in bytes.
func (s *Segment) Len() int { return len(s.Payload) }

// SeqLen returns the amount of sequence space the segment occupies
// (payload bytes plus one for SYN and one for FIN).
func (s *Segment) SeqLen() uint32 {
	n := uint32(len(s.Payload))
	if s.Flags.Has(FlagSYN) {
		n++
	}
	if s.Flags.Has(FlagFIN) {
		n++
	}
	return n
}

// EndSeq returns the sequence number just past the segment's data.
func (s *Segment) EndSeq() SeqNum { return s.Seq.Add(s.SeqLen()) }

// Clone returns a deep copy of the segment, including options and payload.
// The copy is a pooled segment with a pool-owned payload buffer; releasing
// it recycles both (clones that are retained forever simply never return to
// the pool).
func (s *Segment) Clone() *Segment {
	c := s.CloneHeader()
	if len(s.Payload) > 0 {
		c.AttachPayload(pool.Copy(s.Payload))
	}
	return c
}

// CloneHeader returns a pooled copy of the segment with cloned options and
// no payload. Middleboxes that resegment use it to duplicate headers without
// copying payload bytes they are about to replace.
func (s *Segment) CloneHeader() *Segment {
	c := NewSegment()
	c.Src, c.Dst = s.Src, s.Dst
	c.Seq, c.Ack = s.Seq, s.Ack
	c.Flags, c.Window = s.Flags, s.Window
	c.SentAt, c.Ordinal = s.SentAt, s.Ordinal
	for _, o := range s.Options {
		c.AppendOptionCopy(o)
	}
	return c
}

// FindOption returns the first option with the given kind, or nil.
func (s *Segment) FindOption(kind OptionKind) Option {
	for _, o := range s.Options {
		if o.Kind() == kind {
			return o
		}
	}
	return nil
}

// MPTCPOption returns the first MPTCP option with the given subtype, or nil.
func (s *Segment) MPTCPOption(sub MPTCPSubtype) Option {
	for _, o := range s.Options {
		if o.Kind() == OptMPTCP && o.Subtype() == sub {
			return o
		}
	}
	return nil
}

// RemoveOptions deletes all options for which drop returns true and reports
// how many were removed. Middlebox models use this to strip options.
func (s *Segment) RemoveOptions(drop func(Option) bool) int {
	kept := s.Options[:0]
	removed := 0
	for _, o := range s.Options {
		if drop(o) {
			removed++
			continue
		}
		kept = append(kept, o)
	}
	s.Options = kept
	return removed
}

// HasMPTCP reports whether the segment carries any MPTCP option.
func (s *Segment) HasMPTCP() bool {
	return s.FindOption(OptMPTCP) != nil
}

// String renders a compact single-line description for traces and test
// failures.
func (s *Segment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s seq=%d ack=%d win=%d len=%d", s.Tuple(), s.Flags, s.Seq, s.Ack, s.Window, len(s.Payload))
	for _, o := range s.Options {
		fmt.Fprintf(&b, " %s", o)
	}
	return b.String()
}
