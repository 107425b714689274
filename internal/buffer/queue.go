package buffer

// Queue is a FIFO held in one slice: items[head:] are queued, oldest first.
// Drop retires items from the front by advancing the head, so no drain
// shifts what is still queued (Linux unlinks acked skbs from the head of its
// retransmit queue the same way). Push slides the queued items back to the
// front of the array only when it reaches the array's end with at least half
// of it free (on a small array, with any of it free), and doubles the array
// otherwise. Past queueSlideAlways slots, slides and growth together move at
// most two items per item pushed, and a queue that has reached its working
// size never reallocates. An endpoint's write queue and a connection's
// in-flight mappings are Queues.
//
// The zero value is an empty queue; Init gives it a first backing array.
type Queue[T any] struct {
	items []T
	head  int32
}

// queueSlideAlways is the array size up to which Push slides the queued items
// back whenever the head has moved, instead of waiting for half the array to
// be free: moving fewer than 64 pointers costs less than growing the array,
// and it keeps a queue that fits its array there. An endpoint's write queue
// holds up to 13 chunks in its 14 inline slots while a flow is inside its
// initial window.
const queueSlideAlways = 64

// Init empties the queue onto buf's array, which Push leaves for the heap
// once the queue outgrows it, so its size is never a limit.
func (q *Queue[T]) Init(buf []T) { q.items, q.head = buf[:0], 0 }

// Len returns the number of items queued.
func (q *Queue[T]) Len() int { return len(q.items) - int(q.head) }

// Items returns the queued items, oldest first. The slice aliases the queue:
// it is valid until the next Push or Drop.
func (q *Queue[T]) Items() []T { return q.items[q.head:] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if n := len(q.items); n == cap(q.items) {
		live := q.items[q.head:]
		if q.head > 0 && (n <= queueSlideAlways || 2*int(q.head) >= n) {
			// At least half the array lies before the head, or the array
			// is small: slide the queued items back to its front and zero
			// the slots they leave.
			m := copy(q.items, live)
			clear(q.items[m:])
			q.items = q.items[:m]
		} else {
			// Grow to twice the array, taking only the queued items; the old
			// array is zeroed, so it pins nothing either.
			grown := make([]T, len(live), max(2*n, 1))
			copy(grown, live)
			clear(q.items)
			q.items = grown
		}
		q.head = 0
	}
	q.items = append(q.items, v)
}

// Drop removes the n oldest items. Their slots are zeroed, so a queue of
// pointers pins nothing it no longer holds; an emptied queue starts again at
// the front of its array.
func (q *Queue[T]) Drop(n int) {
	h := int(q.head)
	clear(q.items[h : h+n])
	if h+n == len(q.items) {
		q.items, q.head = q.items[:0], 0
		return
	}
	q.head = int32(h + n)
}
