package buffer

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpgo/internal/pool"
)

func TestByteQueueBasics(t *testing.T) {
	q := NewByteQueue(100)
	q.Append([]byte("hello "))
	q.Append([]byte("world"))
	if q.Len() != 11 || q.HeadOffset() != 100 || q.TailOffset() != 111 {
		t.Fatalf("unexpected state: len=%d head=%d tail=%d", q.Len(), q.HeadOffset(), q.TailOffset())
	}
	if got := q.Peek(106, 5); string(got) != "world" {
		t.Fatalf("Peek = %q", got)
	}
	if got := q.Pop(6); string(got) != "hello " {
		t.Fatalf("Pop = %q", got)
	}
	if q.HeadOffset() != 106 {
		t.Fatalf("head after pop = %d", q.HeadOffset())
	}
	q.TrimTo(109)
	if q.Len() != 2 || string(q.Peek(109, 2)) != "ld" {
		t.Fatalf("trim result wrong: %q", q.Peek(109, 2))
	}
	q.TrimTo(200) // beyond tail
	if q.Len() != 0 || q.HeadOffset() != 200 {
		t.Fatalf("trim past tail: len=%d head=%d", q.Len(), q.HeadOffset())
	}
}

func TestByteQueuePeekOutOfRange(t *testing.T) {
	q := NewByteQueue(0)
	q.Append([]byte("abc"))
	if q.Peek(10, 1) != nil || q.Peek(3, 1) != nil {
		t.Fatal("out-of-range peeks must return nil")
	}
}

// streamModel checks an OfoQueue implementation against a trivial reference:
// random segments of a contiguous stream are inserted in random order, and
// the reassembled output must equal the original stream.
func streamModel(t *testing.T, alg Algorithm, segments int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const segSize = 100
	total := segments * segSize
	stream := make([]byte, total)
	rng.Read(stream)

	items := make([]Item, segments)
	for i := 0; i < segments; i++ {
		items[i] = Item{
			Seq:     uint64(i * segSize),
			Data:    stream[i*segSize : (i+1)*segSize],
			Subflow: i % 3,
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	q := NewOfoQueue(alg)
	var out []byte
	var next uint64
	deliver := func(its []Item) {
		for _, it := range its {
			out = append(out, it.Data...)
			next = it.End()
		}
	}
	for _, it := range items {
		if it.Seq == next {
			out = append(out, it.Data...)
			next = it.End()
			deliver(q.PopContiguous(next))
			continue
		}
		q.Insert(it)
		deliver(q.PopContiguous(next))
	}
	deliver(q.PopContiguous(next))

	if !bytes.Equal(out, stream) {
		t.Fatalf("%s: reassembled stream differs (got %d bytes, want %d)", alg, len(out), len(stream))
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("%s: queue not empty after full reassembly: len=%d bytes=%d", alg, q.Len(), q.Bytes())
	}
}

func TestOfoQueueReassemblesAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms() {
		for seed := int64(1); seed <= 5; seed++ {
			streamModel(t, alg, 200, seed)
		}
	}
}

func TestOfoQueueDuplicatesAndOverlaps(t *testing.T) {
	for _, alg := range Algorithms() {
		q := NewOfoQueue(alg)
		q.Insert(Item{Seq: 100, Data: make([]byte, 50)})
		q.Insert(Item{Seq: 100, Data: make([]byte, 50)}) // exact duplicate
		q.Insert(Item{Seq: 125, Data: make([]byte, 50)}) // overlaps tail
		if q.Bytes() > 75 {
			t.Fatalf("%s: overlapping inserts should not double-count bytes, got %d", alg, q.Bytes())
		}
		out := q.PopContiguous(100)
		var n int
		for _, it := range out {
			n += len(it.Data)
		}
		if n != 75 {
			t.Fatalf("%s: expected 75 contiguous bytes, got %d", alg, n)
		}
	}
}

func TestOfoQueueStepsOrdering(t *testing.T) {
	// For a workload with a persistent hole, Regular must do more work than
	// AllShortcuts (this is the §4.3 claim in miniature).
	build := func(alg Algorithm) uint64 {
		q := NewOfoQueue(alg)
		// Hole at 0; two interleaved subflows deliver batches above it.
		seq := uint64(1000)
		for i := 0; i < 600; i++ {
			q.Insert(Item{Seq: seq, Data: make([]byte, 10), Subflow: i % 2})
			seq += 10
		}
		return q.Steps()
	}
	regular := build(AlgRegular)
	all := build(AlgAllShortcuts)
	if all >= regular {
		t.Fatalf("AllShortcuts (%d steps) should be cheaper than Regular (%d steps)", all, regular)
	}
}

// TestOfoQueueEquivalenceQuick is a property test: all four algorithms must
// produce identical reassembled streams for arbitrary insertion orders.
func TestOfoQueueEquivalenceQuick(t *testing.T) {
	f := func(order []uint8, holdFirst bool) bool {
		if len(order) == 0 {
			return true
		}
		if len(order) > 60 {
			order = order[:60]
		}
		segCount := len(order)
		const segSize = 8
		stream := make([]byte, segCount*segSize)
		for i := range stream {
			stream[i] = byte(i * 7)
		}
		results := make([][]byte, 0, 4)
		for _, alg := range Algorithms() {
			q := NewOfoQueue(alg)
			var out []byte
			var next uint64
			insert := func(idx int) {
				it := Item{Seq: uint64(idx * segSize), Data: stream[idx*segSize : (idx+1)*segSize], Subflow: idx % 2}
				if it.Seq == next {
					out = append(out, it.Data...)
					next = it.End()
				} else {
					q.Insert(it)
				}
				for _, d := range q.PopContiguous(next) {
					out = append(out, d.Data...)
					next = d.End()
				}
			}
			// Insertion order derived from the fuzzed slice.
			perm := make([]int, segCount)
			for i := range perm {
				perm[i] = i
			}
			for i, o := range order {
				j := int(o) % segCount
				perm[i], perm[j] = perm[j], perm[i]
			}
			for _, idx := range perm {
				insert(idx)
			}
			results = append(results, out)
		}
		for i := 1; i < len(results); i++ {
			if !bytes.Equal(results[0], results[i]) {
				return false
			}
		}
		return bytes.Equal(results[0], stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[Algorithm]string{
		AlgRegular:      "Regular",
		AlgTree:         "Tree",
		AlgShortcuts:    "Shortcuts",
		AlgAllShortcuts: "AllShortcuts",
	}
	for alg, name := range want {
		if alg.String() != name {
			t.Errorf("algorithm %d name mismatch", alg)
		}
	}
}

// queueHead returns the node a queue reaches first: its list head, or its
// tree root.
func queueHead(q OfoQueue) any {
	switch q := q.(type) {
	case *listQueue:
		return q.head
	case *treeQueue:
		return q.root
	}
	return nil
}

// TestOfoQueuesShareNodes: queues on one Nodes, as on one simulator, take
// each other's recycled structs. Once queue a has drained, b's item sits in
// the node a gave back, and the hint a took on that node never matches
// again: a's next item, which would belong right after b's if the hint were
// followed, lands in a.
func TestOfoQueuesShareNodes(t *testing.T) {
	data := make([]byte, 100)
	for _, alg := range Algorithms() {
		var nodes Nodes
		a, b := NewOfoQueue(alg), NewOfoQueue(alg)
		a.UsePool(nil, &nodes)
		b.UsePool(nil, &nodes)
		a.Insert(Item{Seq: 100, Data: data, Subflow: 1})
		taken := queueHead(a)
		for _, it := range a.PopContiguous(100) {
			pool.Recycle(it.Data)
		}
		b.Insert(Item{Seq: 300, Data: data, Subflow: 1})
		if queueHead(b) != taken {
			t.Fatalf("%s: b did not reuse the node a gave back", alg)
		}
		a.Insert(Item{Seq: 400, Data: data, Subflow: 1})
		if a.Len() != 1 || b.Len() != 1 {
			t.Fatalf("%s: a holds %d items and b %d after a's insert; want 1 and 1", alg, a.Len(), b.Len())
		}
		for _, c := range []struct {
			q   OfoQueue
			seq uint64
		}{{a, 400}, {b, 300}} {
			out := c.q.PopContiguous(c.seq)
			if len(out) != 1 || out[0].Seq != c.seq || len(out[0].Data) != len(data) {
				t.Fatalf("%s: popping at %d returned %v", alg, c.seq, out)
			}
			pool.Recycle(out[0].Data)
		}
	}
}

// TestOfoQueueReleaseReturnsEverything: Release empties a queue that holds
// items between holes, giving every buffer back to the pool, and leaves it
// ready for use.
func TestOfoQueueReleaseReturnsEverything(t *testing.T) {
	data := make([]byte, 100)
	for _, alg := range Algorithms() {
		var bufs pool.Local
		outstanding := func() int64 {
			bufs.Flush()
			return pool.Stats().Outstanding()
		}
		start := outstanding()
		q := NewOfoQueue(alg)
		q.UsePool(&bufs, new(Nodes))
		for i := 1; i <= 20; i++ {
			q.Insert(Item{Seq: uint64(i * 150), Data: data, Subflow: i % 2})
		}
		if held := outstanding() - start; held != 20 {
			t.Fatalf("%s: 20 items hold %d pool buffers", alg, held)
		}
		q.Release()
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Fatalf("%s: %d items of %d bytes left after Release", alg, q.Len(), q.Bytes())
		}
		if got := outstanding(); got != start {
			t.Fatalf("%s: %d pool buffers outstanding after Release", alg, got-start)
		}
		q.Insert(Item{Seq: 0, Data: data})
		if out := q.PopContiguous(0); len(out) != 1 || len(out[0].Data) != len(data) {
			t.Fatalf("%s: the released queue returned %v", alg, out)
		} else {
			bufs.Recycle(out[0].Data)
		}
	}
}
