package buffer

import "mptcpgo/internal/pool"

// treeQueue is the "Tree" out-of-order queue from §4.3: a balanced binary
// search tree (a treap with deterministic pseudo-random priorities) keyed by
// data sequence number. Insertion is logarithmic in the queue length, which
// is cheaper than the Regular linear scan but still slower than the Shortcuts
// variants for the common in-batch arrival pattern.
// Tree nodes come from the queue's Nodes (like the list queue's nodes), so
// steady-state insert/pop cycles do not allocate.
type treeQueue struct {
	itemPool
	root  *treeNode
	count int
	bytes int
	steps uint64
	// prioState drives the deterministic priority sequence.
	prioState uint64

	popScratch []Item // as in listQueue
	popBuf     [popInline]Item
}

type treeNode struct {
	it   Item
	prio uint64
	// mark is poisoned while the node lies on a free list.
	mark        pool.Mark
	left, right *treeNode
}

func newTreeQueue() *treeQueue {
	q := &treeQueue{prioState: 0x1234_5678_9abc_def1}
	q.popScratch = q.popBuf[:0]
	return q
}

// Len implements OfoQueue.
func (q *treeQueue) Len() int { return q.count }

// Bytes implements OfoQueue.
func (q *treeQueue) Bytes() int { return q.bytes }

// Steps implements OfoQueue.
func (q *treeQueue) Steps() uint64 { return q.steps }

func (q *treeQueue) nextPrio() uint64 {
	x := q.prioState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	q.prioState = x
	return x * 0x2545f4914f6cdd1d
}

// Insert implements OfoQueue.
func (q *treeQueue) Insert(it Item) int {
	steps := 0

	// Trim against the predecessor and successor so stored items never
	// overlap; this mirrors the trimming the list-based queues perform.
	if pred := q.floor(it.Seq, &steps); pred != nil && pred.it.End() > it.Seq {
		if !trimItem(&it, pred.it.End()) {
			q.steps += uint64(steps)
			return steps
		}
	}
	if succ := q.ceiling(it.Seq, &steps); succ != nil && it.End() > succ.it.Seq {
		keep := succ.it.Seq - it.Seq
		if keep == 0 {
			q.steps += uint64(steps)
			return steps
		}
		it.Data = it.Data[:keep]
	}

	q.adoptItemData(&it)
	q.root = q.insertNode(q.root, q.newNode(it, q.nextPrio()), &steps)
	q.count++
	q.bytes += len(it.Data)
	q.steps += uint64(steps)
	return steps
}

// newNode takes a node from the free list and loads it.
func (q *treeQueue) newNode(it Item, prio uint64) *treeNode {
	n := q.lists().tree.Get()
	*n = treeNode{it: it, prio: prio}
	return n
}

// recycleNode returns a detached node to the free list.
func (q *treeQueue) recycleNode(n *treeNode) {
	*n = treeNode{}
	n.mark.Poison()
	q.nodes.tree.Put(n)
}

// floor returns the node with the largest Seq <= seq.
func (q *treeQueue) floor(seq uint64, steps *int) *treeNode {
	var best *treeNode
	n := q.root
	for n != nil {
		*steps++
		if n.it.Seq <= seq {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	return best
}

// ceiling returns the node with the smallest Seq > seq.
func (q *treeQueue) ceiling(seq uint64, steps *int) *treeNode {
	var best *treeNode
	n := q.root
	for n != nil {
		*steps++
		if n.it.Seq > seq {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	return best
}

func (q *treeQueue) insertNode(root, n *treeNode, steps *int) *treeNode {
	if root == nil {
		return n
	}
	root.mark.Check("buffer.treeNode")
	*steps++
	if n.it.Seq < root.it.Seq {
		root.left = q.insertNode(root.left, n, steps)
		if root.left.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.right = q.insertNode(root.right, n, steps)
		if root.right.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	return root
}

func rotateRight(n *treeNode) *treeNode {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *treeNode) *treeNode {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// popMin removes and returns the node with the smallest Seq.
func (q *treeQueue) popMin() *treeNode {
	if q.root == nil {
		return nil
	}
	var parent *treeNode
	n := q.root
	for n.left != nil {
		parent = n
		n = n.left
	}
	n.mark.Check("buffer.treeNode")
	if parent == nil {
		q.root = n.right
	} else {
		parent.left = n.right
	}
	q.count--
	q.bytes -= len(n.it.Data)
	return n
}

// peekMin returns the smallest node without removing it.
func (q *treeQueue) peekMin() *treeNode {
	n := q.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n
}

// PopContiguous implements OfoQueue. The returned slice is reused by the
// next PopContiguous call on this queue.
func (q *treeQueue) PopContiguous(nextSeq uint64) []Item {
	out := q.popScratch[:0]
	for {
		min := q.peekMin()
		if min == nil {
			break
		}
		if min.it.End() <= nextSeq {
			// Pop (with the item still attached, so byte accounting sees its
			// length), then recycle buffer and node.
			n := q.popMin()
			it := n.it
			q.recycleNode(n)
			q.discardItemData(&it)
			continue
		}
		if min.it.Seq > nextSeq {
			break
		}
		n := q.popMin()
		it := n.it
		q.recycleNode(n)
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
func (q *treeQueue) Release() {
	for n := q.popMin(); n != nil; n = q.popMin() {
		it := n.it
		q.recycleNode(n)
		q.discardItemData(&it)
	}
}
