package buffer

import "mptcpgo/internal/pool"

// SendQueue is the queue a sender's chunks are transmitted from: a ByteQueue
// whose bytes are given up by two parties. The owner trims it as its
// cumulative acknowledgement advances (TrimTo), and every chunk that
// references bytes holds the blocks they lie in until it is done with them
// (Hold, Unhold). A block goes back to the pool once it is both trimmed and
// unheld. So one queue can serve every subflow of an MPTCP connection — the
// paper's cloned skb — and a chunk still unacknowledged on a slow subflow
// pins the block it references, not the stream after it.
//
// Bytes below the owner's mark are readable only where a chunk holds them.
// The zero value is an empty queue on the shared pool, and like a ByteQueue
// it must not be copied once used.
type SendQueue struct {
	// q holds the blocks from the one the mark lies in to the tail.
	q ByteQueue
	// Hold counts of q's blocks, laid out like its block table: holdsInline
	// while the table is inline, holdsTab once it has grown.
	holdsInline [inlineBlocks]int32
	holdsTab    []int32
	// pinned are the blocks wholly below the mark that a chunk still holds,
	// in stream order.
	pinned []pinnedBlock
	// held counts the holds outstanding; with none the queue behaves
	// exactly like a ByteQueue trimmed at the mark.
	held    int
	trimmed uint64 // the owner's mark
}

// pinnedBlock is a block the mark has passed, kept for the chunks that hold it.
type pinnedBlock struct {
	start uint64 // stream offset of its first byte
	blk   *block
	holds int32
}

// UsePool makes the queue draw from l (see ByteQueue.UsePool).
func (s *SendQueue) UsePool(l *pool.Local) { s.q.UsePool(l) }

// TailOffset returns the absolute offset one past the last appended byte.
func (s *SendQueue) TailOffset() uint64 { return s.q.TailOffset() }

// Blocks returns how many pool blocks the queue holds.
func (s *SendQueue) Blocks() int { return s.q.Blocks() + len(s.pinned) }

// Peek returns a borrowed view of up to n bytes at off, which must not be
// below the mark (see ByteQueue.Peek).
func (s *SendQueue) Peek(off uint64, n int) []byte { return s.q.Peek(off, n) }

// CopyAt copies the bytes at off into p (see ByteQueue.CopyAt); below the
// mark they must be held.
func (s *SendQueue) CopyAt(p []byte, off uint64) int {
	done := 0
	for done < len(p) && off < s.q.headOffset {
		b := &s.pinned[s.pinnedAt(off)]
		done += copy(p[done:], b.blk[off-b.start:])
		off = b.start + blockSize
	}
	return done + s.q.CopyAt(p[done:], off)
}

// pinnedAt returns the index of the pinned block holding offset off.
func (s *SendQueue) pinnedAt(off uint64) int {
	for i := range s.pinned {
		if b := &s.pinned[i]; off >= b.start && off-b.start < blockSize {
			return i
		}
	}
	panic("buffer: SendQueue read or release below its mark outside every held block")
}

// Append adds data at the tail of the stream.
func (s *SendQueue) Append(b []byte) {
	h, first := s.holdSlots(), s.q.first
	s.q.Append(b)
	if len(s.q.table()) == len(h) {
		return
	}
	// The block table grew, which lays the blocks out afresh from slot 0
	// (it grows only when full, so every slot had a block): move the counts
	// the same way.
	grown := make([]int32, len(s.q.tab))
	for i := range h {
		grown[i] = h[(first+i)&(len(h)-1)]
	}
	s.holdsInline = [inlineBlocks]int32{}
	s.holdsTab = grown
}

// holdSlots returns the hold counts, indexed like the block table.
func (s *SendQueue) holdSlots() []int32 {
	if s.q.tab == nil {
		return s.holdsInline[:]
	}
	return s.holdsTab
}

// Hold marks the blocks under the n bytes at off as referenced by one more
// chunk. The bytes must be in the queue and not below the mark.
func (s *SendQueue) Hold(off uint64, n int) {
	if n > 0 {
		s.held++
		s.adjust(off, n, 1)
	}
}

// Unhold drops one chunk's hold on the blocks under the n bytes at off (the
// range it held); those the mark has passed go back to the pool when their
// last hold goes.
func (s *SendQueue) Unhold(off uint64, n int) {
	if n > 0 {
		s.held--
		s.adjust(off, n, -1)
		s.reclaim()
	}
}

func (s *SendQueue) adjust(off uint64, n int, d int32) {
	q, end := &s.q, off+uint64(n)
	for off < q.headOffset && off < end {
		i := s.pinnedAt(off)
		b := &s.pinned[i]
		off = b.start + blockSize
		if b.holds += d; b.holds == 0 {
			q.bufs.Recycle(b.blk[:])
			s.pinned = append(s.pinned[:i], s.pinned[i+1:]...)
		}
	}
	if off >= end {
		return
	}
	h, base := s.holdSlots(), q.headOffset-uint64(q.head)
	for i := (off - base) / blockSize; base+i*blockSize < end; i++ {
		h[(q.first+int(i))&(len(h)-1)] += d
	}
}

// TrimTo moves the owner's mark to off (never backwards, never past the
// tail): the bytes below it are no longer the owner's, and each block goes
// back to the pool as soon as no chunk holds it.
func (s *SendQueue) TrimTo(off uint64) {
	if off = min(off, s.q.TailOffset()); off > s.trimmed {
		s.trimmed = off
	}
	s.reclaim()
}

// Release gives up everything the owner still has: every unheld block goes
// back to the pool now, each held one when its last chunk lets go.
func (s *SendQueue) Release() { s.TrimTo(s.q.TailOffset()) }

// reclaim takes every block the mark has passed out of q — back to the pool,
// or onto the pinned list while a chunk holds it — and, unless a chunk holds
// the block the mark lies in, trims q at the mark the way a ByteQueue is
// trimmed. Each block leaves q once, so the cost is O(1) per block.
func (s *SendQueue) reclaim() {
	q, h := &s.q, s.holdSlots()
	t := q.table()
	for q.count > 0 {
		base := q.headOffset - uint64(q.head)
		if base+blockSize > s.trimmed {
			break
		}
		if n := h[q.first]; n != 0 {
			if s.pinned == nil {
				s.pinned = make([]pinnedBlock, 0, 4)
			}
			s.pinned = append(s.pinned, pinnedBlock{start: base, blk: t[q.first], holds: n})
			h[q.first] = 0
		} else {
			q.bufs.Recycle(t[q.first][:])
		}
		t[q.first] = nil
		q.first = (q.first + 1) & (len(t) - 1)
		q.count--
		q.size -= int(base + blockSize - q.headOffset)
		q.head, q.headOffset = 0, base+blockSize
	}
	switch {
	case q.count == 0:
		q.Reset(q.headOffset) // gives back the Peek scratch, as TrimTo does
	case h[q.first] == 0:
		q.TrimTo(s.trimmed)
	}
}
