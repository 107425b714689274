// Package buffer provides the byte queues and reassembly structures used by
// the TCP and MPTCP endpoints: application send queues, in-order receive
// queues and the four out-of-order reassembly algorithms evaluated in §4.3 of
// the paper (Regular, Tree, Shortcuts, AllShortcuts).
package buffer

import "mptcpgo/internal/pool"

// blockSize is the one size of payload block a ByteQueue is built from (an
// internal/pool size class, so blocks are recycled across queues and flows).
const blockSize = 16 << 10

// inlineBlocks is the size of the block table embedded in the queue itself:
// a queue holding up to 64 KiB (at most five blocks once its head sits inside
// one) allocates nothing of its own. A power of two, like every table size.
const inlineBlocks = 8

type block = [blockSize]byte

// ByteQueue is a FIFO byte stream with an absolute offset for its head. It
// backs the send buffers (offsets are stream offsets of the queued payload;
// an MPTCP connection's is shared by its subflows) and the in-order receive
// queues.
//
// The bytes live in fixed-size blocks drawn from internal/pool. Append fills
// the tail block and takes another from the pool; TrimTo and Pop hand each
// block back the moment its last byte is consumed. Bytes are written once
// and never moved, and a drained queue holds nothing from the pool.
//
// Blocks never escape the queue: a slice returned by Peek is borrowed and is
// valid only until the next call on the same queue. An owner that is done
// with a queue that still holds bytes calls Release; a queue that is simply
// abandoned leaves its blocks to the garbage collector (pool's "when in
// doubt, drop" rule).
//
// The zero value is an empty queue with its head at offset 0. A queue must
// not be copied once it has been used.
type ByteQueue struct {
	// tab is the block table, a ring of len(tab) slots (a power of two)
	// holding count blocks from index first on. A nil tab stands for the
	// inline table, so the struct carries no pointer into itself.
	tab    []*block
	inline [inlineBlocks]*block
	first  int
	count  int
	// head is the position of the first live byte inside the first block
	// and size the number of live bytes from there on.
	head int
	size int
	// headOffset is the absolute stream offset of the first live byte.
	headOffset uint64
	// scratch backs Peek results that straddle a block boundary; pool-owned.
	scratch []byte
	// bufs is where blocks and scratch come from and go back to: the front
	// of the owner's simulator (UsePool), nil for the shared pool.
	bufs *pool.Local
}

// NewByteQueue returns an empty queue whose head sits at the given absolute
// stream offset.
func NewByteQueue(headOffset uint64) *ByteQueue {
	return &ByteQueue{headOffset: headOffset}
}

// UsePool makes the queue draw from l, the pool front of the simulator its
// owner runs on, instead of the shared pool.
func (q *ByteQueue) UsePool(l *pool.Local) { q.bufs = l }

// Len returns the number of buffered bytes.
func (q *ByteQueue) Len() int { return q.size }

// HeadOffset returns the absolute offset of the first buffered byte.
func (q *ByteQueue) HeadOffset() uint64 { return q.headOffset }

// TailOffset returns the absolute offset one past the last buffered byte.
func (q *ByteQueue) TailOffset() uint64 { return q.headOffset + uint64(q.size) }

// Blocks returns how many pool blocks the queue holds.
func (q *ByteQueue) Blocks() int { return q.count }

func (q *ByteQueue) table() []*block {
	if q.tab == nil {
		return q.inline[:]
	}
	return q.tab
}

// blockAt returns the block holding position pos, counted in bytes from the
// start of the first block.
func (q *ByteQueue) blockAt(pos int) *block {
	t := q.table()
	return t[(q.first+pos/blockSize)&(len(t)-1)]
}

// pushBlock takes a block from the pool and makes it the tail block, doubling
// the block table first when every slot is taken.
func (q *ByteQueue) pushBlock() {
	t := q.table()
	if q.count == len(t) {
		grown := make([]*block, 2*len(t))
		for i := range t {
			grown[i] = q.blockAt(i * blockSize)
		}
		q.inline = [inlineBlocks]*block{}
		q.tab, q.first, t = grown, 0, grown
	}
	t[(q.first+q.count)&(len(t)-1)] = (*block)(q.bufs.Bytes(blockSize))
	q.count++
}

// popBlock recycles the first block.
func (q *ByteQueue) popBlock() {
	t := q.table()
	q.bufs.Recycle(t[q.first][:])
	t[q.first] = nil
	q.first = (q.first + 1) & (len(t) - 1)
	q.count--
}

// Append adds data at the tail of the stream.
func (q *ByteQueue) Append(b []byte) {
	for len(b) > 0 {
		end := q.head + q.size
		if end == q.count*blockSize {
			q.pushBlock()
		}
		n := copy(q.blockAt(end)[end%blockSize:], b)
		q.size += n
		b = b[n:]
	}
}

// locate clamps the range of n bytes at absolute offset off to the buffered
// bytes and returns its position relative to the first block and its length,
// which is 0 when off is outside the buffered range.
func (q *ByteQueue) locate(off uint64, n int) (pos, length int) {
	if off < q.headOffset || off >= q.TailOffset() {
		return 0, 0
	}
	rel := int(off - q.headOffset)
	if n > q.size-rel {
		n = q.size - rel
	}
	return q.head + rel, n
}

// copyOut copies the n bytes at pos (relative to the first block) into p.
func (q *ByteQueue) copyOut(p []byte, pos, n int) {
	for done := 0; done < n; {
		at := pos + done
		done += copy(p[done:n], q.blockAt(at)[at%blockSize:])
	}
}

// Peek returns up to n bytes starting at absolute offset off without removing
// them: exactly n, or as many as are buffered past off. It returns nil if off
// is outside the buffered range. The result is borrowed — it aliases a block
// or, when the range straddles two blocks, the queue's scratch buffer — and
// is valid only until the next call on the queue. Callers that copy the
// bytes out anyway use CopyAt.
func (q *ByteQueue) Peek(off uint64, n int) []byte {
	pos, n := q.locate(off, n)
	if n <= 0 {
		return nil
	}
	if in := pos % blockSize; in+n <= blockSize {
		return q.blockAt(pos)[in : in+n : in+n]
	}
	if cap(q.scratch) < n {
		if q.scratch != nil {
			q.bufs.Recycle(q.scratch)
		}
		q.scratch = q.bufs.Bytes(n)
	}
	q.copyOut(q.scratch, pos, n)
	return q.scratch[:n:n]
}

// CopyAt copies up to len(p) bytes starting at absolute offset off into p,
// block by block, without removing them, and returns the number of bytes
// copied (0 if off is outside the buffered range).
func (q *ByteQueue) CopyAt(p []byte, off uint64) int {
	pos, n := q.locate(off, len(p))
	q.copyOut(p, pos, n)
	return n
}

// Pop removes and returns up to n bytes from the head of the queue. The
// returned slice is freshly allocated; zero-allocation consumers use CopyAt +
// TrimTo instead.
func (q *ByteQueue) Pop(n int) []byte {
	if n > q.size {
		n = q.size
	}
	out := make([]byte, n)
	q.copyOut(out, q.head, n)
	q.TrimTo(q.headOffset + uint64(n))
	return out
}

// TrimTo discards all bytes before absolute offset off (typically the
// cumulative acknowledgement point), recycling every block they emptied.
func (q *ByteQueue) TrimTo(off uint64) {
	if off <= q.headOffset {
		return
	}
	if off >= q.TailOffset() {
		q.Reset(off)
		return
	}
	n := int(off - q.headOffset)
	q.headOffset = off
	q.size -= n
	q.head += n
	for q.head >= blockSize {
		q.popBlock()
		q.head -= blockSize
	}
}

// Reset empties the queue and moves its head to the given offset. Everything
// the queue held goes back to the pool — every block and the Peek scratch
// buffer — and the queue is back on its inline table.
func (q *ByteQueue) Reset(headOffset uint64) {
	for q.count > 0 {
		q.popBlock()
	}
	if q.scratch != nil {
		q.bufs.Recycle(q.scratch)
		q.scratch = nil
	}
	q.tab, q.first, q.head, q.size = nil, 0, 0, 0
	q.headOffset = headOffset
}

// Release discards whatever is still queued, leaving the tail offset where
// it was. Owners call it when the stream the queue carried is over (endpoint
// teardown, connection finish) so that unacknowledged bytes do not keep
// their blocks out of the pool; the queue remains usable.
func (q *ByteQueue) Release() { q.Reset(q.TailOffset()) }
