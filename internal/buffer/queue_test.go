package buffer

import (
	"math/rand"
	"testing"
	"unsafe"
)

// queueMoveBound is how many item moves (slides and growth copies together)
// a Queue may make per item pushed on arrays past queueSlideAlways slots: a
// slide there moves at most half the array, which the pushes since the last
// slide or growth have filled, and a growth doubles the array, so the pushes
// that fill it again pay for the next one. On a smaller array one Push moves
// at most queueSlideAlways items.
const queueMoveBound = 2

// FuzzQueue checks queueAgainstReference on fuzzed call sequences.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{14, 10, 0x85, 3, 0x82, 4, 0x8a, 31, 0xff, 2})
	f.Add([]byte{0, 31, 31, 0x9f, 5, 0xa0, 31, 31, 0x81, 0xff})
	f.Add([]byte{12, 11, 0x82, 2, 0x82, 2, 0x82, 2, 0x82, 2, 0x8b, 20, 0x90})
	f.Fuzz(queueAgainstReference)
}

// TestQueueMatchesReference checks queueAgainstReference on 300 random call
// sequences, so the plain test run covers more than the fuzz seeds.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ops := make([]byte, 1+rng.Intn(256))
		rng.Read(ops)
		queueAgainstReference(t, ops)
	}
}

// queueVals are what the queued pointers point at.
var queueVals [4096]int

// queueAgainstReference drives a Queue of pointers and a plain-slice
// reference with the same Push and Drop calls. After every call the queue
// holds the same items in the same order, every slot of its array outside
// the queued ones is zero (an array it left behind too), and its moves stay
// within queueMoveBound per push (see there for small arrays). At the end a
// warm cycle of pushes and drops within its array allocates nothing.
//
// The first byte sizes the first backing array (0 to 15 slots, as an inline
// array would); every later byte b pushes b%32+1 items when b < 0x80, drops
// everything when b == 0xff, and drops b%33 items (at most all) otherwise.
// Bytes past the 256th are ignored, which keeps the per-step slot scan cheap.
func queueAgainstReference(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	ops = ops[:min(len(ops), 257)]
	var q Queue[*int]
	q.Init(make([]*int, 0, ops[0]%16))
	var ref []*int
	// moves counts the moves of Pushes on arrays past queueSlideAlways
	// slots; a Push on a smaller array is checked on its own.
	pushes, moves, next := 0, 0, 0
	check := func(step int) {
		t.Helper()
		got := q.Items()
		if len(got) != len(ref) || q.Len() != len(ref) {
			t.Fatalf("step %d: %d items (Len %d), reference %d", step, len(got), q.Len(), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("step %d: item %d is %p, reference %p", step, i, got[i], ref[i])
			}
		}
		for i, v := range q.items[:cap(q.items)] {
			if (i < int(q.head) || i >= len(q.items)) && v != nil {
				t.Fatalf("step %d: slot %d outside the queued items [%d, %d) still holds %p", step, i, q.head, len(q.items), v)
			}
		}
		if moves > queueMoveBound*pushes {
			t.Fatalf("step %d: %d moves for %d pushes", step, moves, pushes)
		}
	}
	for step, b := range ops[1:] {
		switch {
		case b < 0x80:
			for k := int(b%32) + 1; k > 0; k-- {
				v := &queueVals[next%len(queueVals)]
				next++
				old, head, live := q.items[:cap(q.items)], q.head, q.Len()
				q.Push(v)
				ref = append(ref, v)
				pushes++
				if grew := unsafe.SliceData(q.items) != unsafe.SliceData(old); grew || head > 0 && q.head == 0 {
					if len(old) > queueSlideAlways {
						moves += live
					} else if live > queueSlideAlways {
						t.Fatalf("step %d: one Push on a %d-slot array moved %d items", step, len(old), live)
					}
					if grew {
						for i, v := range old {
							if v != nil {
								t.Fatalf("step %d: slot %d of the array the queue left still holds %p", step, i, v)
							}
						}
					}
				}
			}
		default:
			n := len(ref)
			if b != 0xff {
				n = min(n, int(b%33))
			}
			q.Drop(n)
			ref = ref[n:]
		}
		check(step)
	}
	// A warm cycle: down to half the array (a small array: to one item less
	// than it holds), then one push and one drop at a time, across the
	// array's end and back to its front.
	c := cap(q.items)
	if c == 0 {
		return
	}
	keep := c / 2
	if c <= queueSlideAlways {
		keep = c - 1
	}
	if n := q.Len() - keep; n > 0 {
		q.Drop(n)
		ref = ref[n:]
	}
	v := &queueVals[0]
	if allocs := testing.AllocsPerRun(4, func() {
		for i := 0; i < 2*c; i++ {
			q.Push(v)
			q.Drop(1)
		}
	}); allocs != 0 {
		t.Fatalf("a warm queue of %d items in %d slots allocated %.1f times a cycle", q.Len(), c, allocs)
	}
	if cap(q.items) != c || q.Len() != len(ref) {
		t.Fatalf("the warm cycle left %d items in %d slots; want %d in %d", q.Len(), cap(q.items), len(ref), c)
	}
}
