package buffer

import "mptcpgo/internal/pool"

// listQueue implements the Regular, Shortcuts and AllShortcuts out-of-order
// queues from §4.3. The underlying container is a doubly-linked list sorted
// by data sequence number, exactly like the Linux out-of-order receive queue;
// the variants differ in how the insertion point is located:
//
//   - Regular: linear scan from the head.
//   - Shortcuts: each subflow remembers where its previous segment was
//     inserted. Because a subflow transmits batches of contiguous data
//     sequence numbers, the next segment usually belongs right after the
//     previous one and is inserted in constant time.
//   - AllShortcuts: when the shortcut misses, the scan iterates over batches
//     of contiguous segments instead of individual segments.
//
// Node and batch structs come from the queue's Nodes, which are normally its
// simulator's (UsePool): out-of-order segments arrive once per reordering
// event on the hot receive path, and recycling the structs (like the payload
// buffers they carry) keeps that path allocation-free once the shard is warm.
// Recycled nodes bump a generation counter so stale subflow hints can never
// mistake a reused node — in this queue or another one of the shard — for
// the one they remembered.
type listQueue struct {
	itemPool
	head, tail *listNode
	batches    *batchNode // first batch (ordered)
	lastBatch  *batchNode

	useShortcuts bool
	useBatches   bool

	// hints holds one entry per subflow (Shortcuts and AllShortcuts only),
	// on hintBuf until more subflows arrive than it holds.
	hints   []listHint
	hintBuf [hintsInline]listHint

	count int
	bytes int
	steps uint64

	// popScratch is the reused PopContiguous result slice, on popBuf until
	// a run outgrows it.
	popScratch []Item
	popBuf     [popInline]Item
}

type listNode struct {
	it         Item
	prev, next *listNode
	batch      *batchNode // nil unless the queue keeps batches (AllShortcuts)
	// mark is poisoned while the node lies on a free list.
	mark pool.Mark
	// gen counts reuses of this struct; a hint taken on an earlier life of
	// the node no longer matches and is ignored.
	gen uint64
}

type batchNode struct {
	first, last *listNode
	mark        pool.Mark
	prev, next  *batchNode
}

// listHint remembers where a subflow's previous segment was inserted, pinned
// to the generation of the node at the time.
type listHint struct {
	subflow int
	n       *listNode
	gen     uint64
}

// hintsInline is how many subflows' hints a queue holds before its hint list
// moves to the heap: a connection of the bench/perf fleets has one or two.
const hintsInline = 2

func newListQueue(shortcuts, batches bool) *listQueue {
	q := &listQueue{useShortcuts: shortcuts, useBatches: batches}
	q.popScratch, q.hints = q.popBuf[:0], q.hintBuf[:0]
	return q
}

// Len implements OfoQueue.
func (q *listQueue) Len() int { return q.count }

// Bytes implements OfoQueue.
func (q *listQueue) Bytes() int { return q.bytes }

// Steps implements OfoQueue.
func (q *listQueue) Steps() uint64 { return q.steps }

// newNode takes a node from the free list and loads it.
func (q *listQueue) newNode(it Item) *listNode {
	n := q.lists().list.Get()
	*n = listNode{it: it, gen: n.gen}
	return n
}

// recycleNode returns an unlinked node to the free list, invalidating any
// hints that still reference it.
func (q *listQueue) recycleNode(n *listNode) {
	*n = listNode{gen: n.gen + 1}
	n.mark.Poison()
	q.nodes.list.Put(n)
}

// newBatch takes a batch from the free list.
func (q *listQueue) newBatch(first, last *listNode) *batchNode {
	b := q.lists().batch.Get()
	*b = batchNode{first: first, last: last}
	return b
}

// Insert implements OfoQueue.
func (q *listQueue) Insert(it Item) int {
	steps := q.insert(it)
	q.steps += uint64(steps)
	return steps
}

func (q *listQueue) insert(it Item) (steps int) {
	// 1. Locate the node after which the item belongs (nil = before head).
	var after *listNode
	located := false

	if q.useShortcuts {
		if h := q.hint(it.Subflow); h.n != nil && h.n.gen == h.gen {
			hint := h.n
			hint.mark.Check("buffer.listNode")
			steps++
			if hint.it.End() == it.Seq && (hint.next == nil || it.End() <= hint.next.it.Seq) {
				after = hint
				located = true
			}
		}
	}

	if !located {
		if q.useBatches {
			after = q.locateByBatches(it, &steps)
		} else {
			after = q.locateLinear(it, &steps)
		}
	}

	// 2. Trim overlap with neighbours.
	if after != nil && after.it.End() > it.Seq {
		if !trimItem(&it, after.it.End()) {
			return steps
		}
	}
	next := q.head
	if after != nil {
		next = after.next
	}
	if next != nil && it.End() > next.it.Seq {
		keep := next.it.Seq - it.Seq
		if keep == 0 {
			return steps
		}
		it.Data = it.Data[:keep]
	}

	// 3. Splice in the new node, adopting a pool-owned copy of the payload.
	q.adoptItemData(&it)
	n := q.newNode(it)
	q.insertAfter(after, n)
	q.count++
	q.bytes += len(it.Data)
	if q.useShortcuts {
		h := q.hint(it.Subflow)
		h.n, h.gen = n, n.gen
	}
	if q.useBatches {
		q.attachBatch(n)
	}
	return steps
}

// hint returns the subflow's hint, adding an empty one on its first item.
func (q *listQueue) hint(subflow int) *listHint {
	for i := range q.hints {
		if q.hints[i].subflow == subflow {
			return &q.hints[i]
		}
	}
	q.hints = append(q.hints, listHint{subflow: subflow})
	return &q.hints[len(q.hints)-1]
}

// locateLinear walks the node list from the head.
func (q *listQueue) locateLinear(it Item, steps *int) *listNode {
	var after *listNode
	for n := q.head; n != nil; n = n.next {
		*steps++
		if it.Seq < n.it.Seq {
			break
		}
		after = n
	}
	return after
}

// locateByBatches walks the batch list, then descends into the single batch
// that can contain the insertion point.
func (q *listQueue) locateByBatches(it Item, steps *int) *listNode {
	var prevBatch *batchNode
	for b := q.batches; b != nil; b = b.next {
		*steps++
		if it.Seq < b.first.it.Seq {
			break
		}
		prevBatch = b
	}
	if prevBatch == nil {
		return nil
	}
	// The item belongs after prevBatch.first. If it extends past the batch's
	// end it sits after the batch's last node; otherwise scan within the
	// batch (short by construction: it is a contiguous run, so the position
	// is found by sequence comparison against individual nodes).
	if it.Seq >= prevBatch.last.it.Seq {
		*steps++
		return prevBatch.last
	}
	after := prevBatch.first
	for n := prevBatch.first; n != nil && n.batch == prevBatch; n = n.next {
		*steps++
		if it.Seq < n.it.Seq {
			break
		}
		after = n
	}
	return after
}

func (q *listQueue) insertAfter(after, n *listNode) {
	if after == nil {
		n.next = q.head
		if q.head != nil {
			q.head.prev = n
		}
		q.head = n
		if q.tail == nil {
			q.tail = n
		}
		return
	}
	after.mark.Check("buffer.listNode")
	n.prev = after
	n.next = after.next
	if after.next != nil {
		after.next.prev = n
	} else {
		q.tail = n
	}
	after.next = n
}

// attachBatch places n into the batch structure, merging adjacent batches
// when the new node bridges them.
func (q *listQueue) attachBatch(n *listNode) {
	joinPrev := n.prev != nil && n.prev.it.End() == n.it.Seq
	joinNext := n.next != nil && n.it.End() == n.next.it.Seq

	switch {
	case joinPrev && joinNext && n.prev.batch != n.next.batch:
		// Bridge two batches into one.
		b := n.prev.batch
		other := n.next.batch
		n.batch = b
		for m := other.first; m != nil; m = m.next {
			m.batch = b
			if m == other.last {
				break
			}
		}
		b.last = other.last
		q.removeBatch(other)
	case joinPrev:
		b := n.prev.batch
		n.batch = b
		if b.last == n.prev {
			b.last = n
		}
	case joinNext:
		b := n.next.batch
		n.batch = b
		if b.first == n.next {
			b.first = n
		}
	default:
		// New standalone batch between the neighbours' batches.
		b := q.newBatch(n, n)
		n.batch = b
		var prevBatch *batchNode
		if n.prev != nil {
			prevBatch = n.prev.batch
		}
		q.insertBatchAfter(prevBatch, b)
	}
}

func (q *listQueue) insertBatchAfter(after, b *batchNode) {
	if after == nil {
		b.next = q.batches
		if q.batches != nil {
			q.batches.prev = b
		}
		q.batches = b
		if q.lastBatch == nil {
			q.lastBatch = b
		}
		return
	}
	b.prev = after
	b.next = after.next
	if after.next != nil {
		after.next.prev = b
	} else {
		q.lastBatch = b
	}
	after.next = b
}

// removeBatch unlinks a batch and returns the struct to the free list.
func (q *listQueue) removeBatch(b *batchNode) {
	b.mark.Check("buffer.batchNode")
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		q.batches = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		q.lastBatch = b.prev
	}
	*b = batchNode{}
	b.mark.Poison()
	q.nodes.batch.Put(b)
}

// removeNode unlinks a node (updating counters and batch bookkeeping with the
// item still attached) and recycles the struct. The caller must copy n.it
// first if it still needs the item.
func (q *listQueue) removeNode(n *listNode) {
	n.mark.Check("buffer.listNode")
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	q.count--
	q.bytes -= len(n.it.Data)

	b := n.batch
	if b != nil {
		switch {
		case b.first == n && b.last == n:
			q.removeBatch(b)
		case b.first == n:
			b.first = n.next
		case b.last == n:
			b.last = n.prev
		}
	}
	q.recycleNode(n)
}

// PopContiguous implements OfoQueue. The returned slice is reused by the
// next PopContiguous call on this queue.
func (q *listQueue) PopContiguous(nextSeq uint64) []Item {
	out := q.popScratch[:0]
	for q.head != nil {
		n := q.head
		if n.it.End() <= nextSeq {
			it := n.it
			q.removeNode(n)
			q.discardItemData(&it)
			continue
		}
		if n.it.Seq > nextSeq {
			break
		}
		it := n.it
		q.removeNode(n)
		if !trimItem(&it, nextSeq) {
			q.discardItemData(&it)
			continue
		}
		out = append(out, it)
		nextSeq = it.End()
	}
	q.popScratch = out
	return out
}

// Release implements OfoQueue.
func (q *listQueue) Release() {
	for q.head != nil {
		it := q.head.it
		q.removeNode(q.head)
		q.discardItemData(&it)
	}
}
