//go:build poolcheck

package pool

import (
	"fmt"
	"sync"
)

// The poolcheck build (go test -tags poolcheck) makes ownership mistakes
// loud. Borrowed views of pooled memory — a ByteQueue.Peek result, a segment
// payload — alias buffers that go back to a free list and on to another
// flow, so a stale one reads someone else's bytes rather than its own old
// ones. Under this tag Recycle fills every buffer it accepts with poison, so
// a reader of released memory sees 0xDB bytes (and the integrity checkers
// downstream fail), and a buffer released twice without being handed out in
// between panics at the second Recycle.

const poison = 0xDB

var (
	idleMu sync.Mutex
	// idle holds the first byte's address of every buffer sitting in a free
	// list.
	idle = make(map[*byte]struct{})
)

// checkRelease runs on a whole class-sized buffer about to enter a free list.
func checkRelease(b []byte) {
	idleMu.Lock()
	_, twice := idle[&b[0]]
	idle[&b[0]] = struct{}{}
	idleMu.Unlock()
	if twice {
		panic(fmt.Sprintf("pool: %d-byte buffer %p recycled twice", len(b), &b[0]))
	}
	for i := range b {
		b[i] = poison
	}
}

// checkAcquire runs on a buffer leaving a free list.
func checkAcquire(b []byte) {
	idleMu.Lock()
	delete(idle, &b[0])
	idleMu.Unlock()
}

// Mark is the poolcheck flag of a struct a FreeList holds (a connection's
// Connection, Subflow and tcp.Endpoint): the owner poisons it after zeroing
// the struct on its way to the list, and the struct's entry points check it,
// so a stale reference that would act for the object's next user panics
// instead. Building the struct anew clears it.
type Mark struct{ poisoned bool }

// Poison marks the struct as lying on a free list.
func (m *Mark) Poison() { m.poisoned = true }

// Check panics if the struct lies on a free list; what names it.
func (m *Mark) Check(what string) {
	if m.poisoned {
		panic("pool: use of a released " + what)
	}
}
