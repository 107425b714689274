//go:build poolcheck

package buffer

import "testing"

// TestPoolcheckPoisonsRecycledNodes: under poolcheck a node lying on the free
// list is poisoned, so a queue that still reaches a recycled node — which the
// simulator's next queue may by then hold for another flow — panics instead
// of splicing into that flow's data. A node taken from the list again is
// clean.
func TestPoolcheckPoisonsRecycledNodes(t *testing.T) {
	data := make([]byte, 100)
	for _, alg := range Algorithms() {
		var nodes Nodes
		a, b := NewOfoQueue(alg), NewOfoQueue(alg)
		a.UsePool(nil, &nodes)
		b.UsePool(nil, &nodes)
		a.Insert(Item{Seq: 100, Data: data})
		stale := queueHead(a)
		a.Release()
		b.Insert(Item{Seq: 100, Data: data})
		if queueHead(b) != stale {
			t.Fatalf("%s: b did not reuse the node a gave back", alg)
		}
		b.Release() // poisoned again
		// Leave a pointing at the node, as a stale reference would.
		switch q := a.(type) {
		case *listQueue:
			q.head, q.tail, q.count = stale.(*listNode), stale.(*listNode), 1
		case *treeQueue:
			q.root, q.count = stale.(*treeNode), 1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: popping a recycled node did not panic", alg)
				}
			}()
			a.PopContiguous(100)
		}()
	}
}
