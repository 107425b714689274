// Package pool provides size-classed, concurrency-safe byte-buffer recycling
// for the per-segment hot path. The emulator moves every payload byte through
// several hops (send queue → wire segment → reassembly queue → receive
// queue); without recycling, each hop costs a garbage-collected allocation
// per segment, which dominates the CPU profile of the figure benchmarks.
//
// Ownership discipline: a buffer obtained from Bytes (or Copy) is owned by
// exactly one component at a time. The owner either passes ownership on
// (e.g. by attaching the buffer to a packet.Segment) or returns it with
// Recycle once the contents have been consumed. Recycling a buffer that is
// still referenced elsewhere corrupts data; when in doubt, drop the buffer
// and let the garbage collector take it — Recycle silently ignores any slice
// whose capacity does not exactly match a size class, so re-sliced buffers
// are always safe to "recycle".
//
// Building with -tags poolcheck turns the discipline into a check: Recycle
// poisons what it takes back and panics on a double release (poolcheck_on.go).
//
// Buffer contents are undefined on Get; callers must overwrite the bytes
// they use. This keeps the pool free of zeroing cost and, because every user
// copies exact lengths, keeps simulation results independent of pool state.
package pool

import "sync/atomic"

// Size classes. 2048 covers the standard Ethernet MSS (1460), 16384 covers
// jumbo frames (8960), 65536 covers coalesced segments and application reads.
var classSizes = [...]int{256, 2048, 16384, 65536}

// perClassCap bounds how many free buffers each class retains; beyond it,
// recycled buffers are dropped to the garbage collector. 4096 × 2 KiB ≈ 8 MiB
// for the MSS class, enough for the deepest bufferbloat scenarios in the
// paper (2 s × 2 Mbps 3G queues) across several concurrent sweep points.
const perClassCap = 4096

// class is a lock-free free list backed by a buffered channel: sends and
// receives never block (full/empty fall through to drop/allocate) and never
// allocate, which keeps the steady-state hot path at zero allocs/op.
type class struct {
	size int
	free chan []byte
	// keep is how many buffers of this class a Local's stack holds at most.
	keep int
}

var classes [len(classSizes)]class

func init() {
	for i, size := range classSizes {
		classes[i] = class{size: size, free: make(chan []byte, perClassCap), keep: min(localSlots, localBytes/size)}
	}
}

// Counters reports pool activity; tests use it to verify that hot paths stay
// on the recycled path.
type Counters struct {
	// Gets counts Bytes/Copy calls served by the pool (any class).
	Gets uint64
	// Misses counts Bytes/Copy calls that had to allocate.
	Misses uint64
	// Puts counts buffers accepted back by Recycle.
	Puts uint64
	// Drops counts Recycle calls that discarded the buffer (wrong capacity
	// or full class).
	Drops uint64
}

// Outstanding returns how many buffers are handed out and not yet given back
// or dropped. A component whose work leaves it where it started has leaked
// nothing and recycled nothing twice. Only tests call it; it is exported for
// the leak checks of the packages built on the pool.
func (c Counters) Outstanding() int64 {
	return int64(c.Gets+c.Misses) - int64(c.Puts+c.Drops)
}

var gets, misses, puts, drops atomic.Uint64

// Stats returns a snapshot of the pool counters.
func Stats() Counters {
	return Counters{
		Gets:   gets.Load(),
		Misses: misses.Load(),
		Puts:   puts.Load(),
		Drops:  drops.Load(),
	}
}

// classIndex returns the index of the smallest class that fits n, or -1 if n
// exceeds the largest class.
func classIndex(n int) int {
	for i := range classes {
		if n <= classes[i].size {
			return i
		}
	}
	return -1
}

// classFor returns the smallest class that fits n, or nil if n exceeds the
// largest class.
func classFor(n int) *class {
	if i := classIndex(n); i >= 0 {
		return &classes[i]
	}
	return nil
}

// Bytes returns a buffer of length n with undefined contents. Buffers larger
// than the largest size class are plainly allocated (and later ignored by
// Recycle).
func Bytes(n int) []byte {
	c := classFor(n)
	if c == nil {
		misses.Add(1)
		return make([]byte, n)
	}
	select {
	case b := <-c.free:
		gets.Add(1)
		checkAcquire(b)
		return b[:n]
	default:
		misses.Add(1)
		return make([]byte, n, c.size)
	}
}

// Copy returns a pool-owned copy of p.
func Copy(p []byte) []byte {
	b := Bytes(len(p))
	copy(b, p)
	return b
}

// Recycle returns a buffer previously obtained from Bytes or Copy to its
// class. Slices whose capacity does not exactly match a class — including
// anything re-sliced from the front — are silently dropped, so callers never
// need to track whether a buffer is still "whole".
func Recycle(b []byte) {
	c := classFor(cap(b))
	if c == nil || cap(b) != c.size {
		drops.Add(1)
		return
	}
	b = b[:c.size]
	checkRelease(b)
	select {
	case c.free <- b:
		puts.Add(1)
	default:
		checkAcquire(b)
		drops.Add(1)
	}
}
