package buffer

import "mptcpgo/internal/pool"

// Item is one out-of-order segment held at the connection level, keyed by its
// data sequence number.
type Item struct {
	// Seq is the absolute stream offset (data sequence number) of Data[0].
	Seq uint64
	// Data is the segment payload (already trimmed of any overlap with
	// delivered data).
	Data []byte
	// Subflow identifies the subflow the segment arrived on; the Shortcuts
	// algorithms exploit the fact that arrivals on one subflow are usually
	// in data-sequence order.
	Subflow int
}

// End returns the stream offset one past the item's last byte.
func (it *Item) End() uint64 { return it.Seq + uint64(len(it.Data)) }

// OfoQueue is an out-of-order reassembly queue. Implementations differ only
// in how they locate the insertion point for a new segment, which is exactly
// the cost §4.3 of the paper optimizes.
type OfoQueue interface {
	// Insert adds an item arriving on the given subflow. Fully duplicate
	// items are dropped. It returns the number of elementary search steps
	// (node visits / comparisons) performed, the proxy used for CPU cost.
	//
	// The queue stores a pool-owned copy of it.Data; the caller keeps
	// ownership of (and may immediately reuse) the slice it passed in.
	Insert(it Item) int
	// PopContiguous removes and returns the maximal run of items that starts
	// exactly at nextSeq, in order. Items entirely below nextSeq are
	// discarded. Ownership of each returned item's Data passes to the
	// caller, which should pool.Recycle it once consumed. The returned slice
	// itself stays owned by the queue and is reused by the next
	// PopContiguous call: consume (or copy) it before touching the queue
	// again.
	PopContiguous(nextSeq uint64) []Item
	// Len returns the number of queued items.
	Len() int
	// Bytes returns the number of queued payload bytes.
	Bytes() int
	// Steps returns the cumulative number of search steps since creation.
	Steps() uint64
	// UsePool makes the queue copy into buffers from bufs, where the caller
	// then recycles what PopContiguous returns, and take its node structs
	// from nodes; both are normally the simulator's (sim.Local), shared by
	// every queue the simulator runs. Without it, the queue copies into the
	// shared pool and keeps node lists of its own. Call it before the first
	// Insert.
	UsePool(bufs *pool.Local, nodes *Nodes)
	// Release discards every queued item, recycling its buffer and node, and
	// leaves the queue empty: an owner that goes away with items still queued
	// (a reset or timed-out connection) calls it so that neither returns to
	// the garbage collector instead of the free lists.
	Release()
}

// Nodes are the free lists a queue's structs come from. A simulator keeps one
// (sim.Local) for every queue it runs, so a shard pays for nodes up to its
// high-water mark of queued items, however many connections reorder on it.
// The zero value is ready to use.
type Nodes struct {
	list  pool.FreeList[listNode]
	batch pool.FreeList[batchNode]
	tree  pool.FreeList[treeNode]
}

// Algorithm selects an out-of-order reassembly implementation.
type Algorithm int

// The four receive algorithms compared in Figure 8.
const (
	// AlgRegular scans the queue linearly from the head, as the unmodified
	// Linux receive path does for out-of-order arrivals.
	AlgRegular Algorithm = iota
	// AlgTree keeps the queue in a balanced search tree (logarithmic
	// insertion).
	AlgTree
	// AlgShortcuts keeps a per-subflow pointer to the expected insertion
	// point; a correct prediction inserts in constant time.
	AlgShortcuts
	// AlgAllShortcuts additionally groups in-sequence items into batches and
	// scans batches rather than items when the shortcut misses.
	AlgAllShortcuts
)

// String returns the algorithm's display name.
func (a Algorithm) String() string {
	switch a {
	case AlgRegular:
		return "Regular"
	case AlgTree:
		return "Tree"
	case AlgShortcuts:
		return "Shortcuts"
	case AlgAllShortcuts:
		return "AllShortcuts"
	default:
		return "Unknown"
	}
}

// Algorithms lists all implementations in the order Figure 8 reports them.
func Algorithms() []Algorithm {
	return []Algorithm{AlgRegular, AlgTree, AlgShortcuts, AlgAllShortcuts}
}

// NewOfoQueue constructs an out-of-order queue using the given algorithm.
func NewOfoQueue(a Algorithm) OfoQueue {
	switch a {
	case AlgTree:
		return newTreeQueue()
	case AlgShortcuts:
		return newListQueue(true, false)
	case AlgAllShortcuts:
		return newListQueue(true, true)
	default:
		return newListQueue(false, false)
	}
}

// trimItem clips it against the already-delivered prefix ending at nextSeq.
// It returns false if nothing remains.
func trimItem(it *Item, nextSeq uint64) bool {
	if it.End() <= nextSeq {
		return false
	}
	if it.Seq < nextSeq {
		cut := nextSeq - it.Seq
		it.Data = it.Data[cut:]
		it.Seq = nextSeq
	}
	return len(it.Data) > 0
}

// popInline is how many items a queue's PopContiguous result holds before it
// moves to the heap: the length of most runs a filled hole releases.
const popInline = 4

// itemPool is the part the implementations share: where the pool-owned
// copies of item data come from (nil for the shared pool), and where the node
// structs do (nil until the first node, when the queue builds its own).
type itemPool struct {
	bufs  *pool.Local
	nodes *Nodes
}

// UsePool implements OfoQueue.
func (p *itemPool) UsePool(bufs *pool.Local, nodes *Nodes) { p.bufs, p.nodes = bufs, nodes }

// lists returns the node free lists, building the queue's own on first use
// when UsePool supplied none.
func (p *itemPool) lists() *Nodes {
	if p.nodes == nil {
		p.nodes = new(Nodes)
	}
	return p.nodes
}

// adoptItemData replaces the item's (borrowed) data slice with a pool-owned
// copy; implementations call it right before storing a new item.
func (p *itemPool) adoptItemData(it *Item) {
	it.Data = p.bufs.Copy(it.Data)
}

// discardItemData recycles the pool-owned buffer of an item the queue is
// dropping internally (fully-duplicate or below the delivery point).
func (p *itemPool) discardItemData(it *Item) {
	p.bufs.Recycle(it.Data)
	it.Data = nil
}
