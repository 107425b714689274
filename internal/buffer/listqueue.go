package buffer

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
// Node and batch structs are free-listed per queue: out-of-order segments
// arrive once per reordering event on the hot receive path, and recycling
// the structs (like the payload buffers they carry) keeps that path
// allocation-free at steady state. Recycled nodes bump a generation counter
// so stale subflow hints can never mistake a reused node for the one they
// remembered.
type listQueue struct {
	itemPool
	head, tail *listNode
	batches    *batchNode // first batch (ordered)
	lastBatch  *batchNode

	useShortcuts bool
	useBatches   bool

	hints map[int]listHint // built when a Shortcuts queue stores its first item

	count int
	bytes int
	steps uint64

	// freeNodes/freeBatches recycle structs; popScratch is the reused
	// PopContiguous result slice. All three are queue-local: queues belong to
	// one endpoint on one simulator, so no locking is needed.
	freeNodes   []*listNode
	freeBatches []*batchNode
	popScratch  []Item
}

type listNode struct {
	it         Item
	prev, next *listNode
	batch      *batchNode
	// gen counts reuses of this struct; a hint taken on an earlier life of
	// the node no longer matches and is ignored.
	gen uint64
}

type batchNode struct {
	first, last *listNode
	prev, next  *batchNode
}

// listHint remembers where a subflow's previous segment was inserted, pinned
// to the generation of the node at the time.
type listHint struct {
	n   *listNode
	gen uint64
}

func newListQueue(shortcuts, batches bool) *listQueue {
	return &listQueue{useShortcuts: shortcuts, useBatches: batches}
}

// Len implements OfoQueue.
func (q *listQueue) Len() int { return q.count }

// Bytes implements OfoQueue.
func (q *listQueue) Bytes() int { return q.bytes }

// Steps implements OfoQueue.
func (q *listQueue) Steps() uint64 { return q.steps }

// newNode takes a node from the free list (or allocates one) and loads it.
func (q *listQueue) newNode(it Item) *listNode {
	if n := len(q.freeNodes); n > 0 {
		nd := q.freeNodes[n-1]
		q.freeNodes = q.freeNodes[:n-1]
		nd.it = it
		return nd
	}
	return &listNode{it: it}
}

// recycleNode returns an unlinked node to the free list, invalidating any
// hints that still reference it.
func (q *listQueue) recycleNode(n *listNode) {
	n.gen++
	n.it = Item{}
	n.prev, n.next, n.batch = nil, nil, nil
	q.freeNodes = append(q.freeNodes, n)
}

// newBatch takes a batch from the free list (or allocates one).
func (q *listQueue) newBatch(first, last *listNode) *batchNode {
	if n := len(q.freeBatches); n > 0 {
		b := q.freeBatches[n-1]
		q.freeBatches = q.freeBatches[:n-1]
		b.first, b.last = first, last
		return b
	}
	return &batchNode{first: first, last: last}
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
		if h, ok := q.hints[it.Subflow]; ok && h.n != nil && h.n.gen == h.gen {
			hint := h.n
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
		if q.hints == nil {
			q.hints = make(map[int]listHint)
		}
		q.hints[it.Subflow] = listHint{n: n, gen: n.gen}
	}
	q.attachBatch(n)
	return steps
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
	b.first, b.last, b.prev, b.next = nil, nil, nil, nil
	q.freeBatches = append(q.freeBatches, b)
}

// removeNode unlinks a node (updating counters and batch bookkeeping with the
// item still attached) and recycles the struct. The caller must copy n.it
// first if it still needs the item.
func (q *listQueue) removeNode(n *listNode) {
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
