package packet

import (
	"testing"

	"mptcpgo/internal/pool"
)

// TestPayloadRecyclesWhereItCameFrom: Release hands an owned payload back to
// the pool front it was attached from, or to the shared pool when it was
// attached without one; a clone's copy is the shared pool's whatever the
// original's was, and a released segment remembers no origin.
func TestPayloadRecyclesWhereItCameFrom(t *testing.T) {
	var l pool.Local
	defer l.Flush()

	shared := pool.Stats()
	s := NewSegment()
	buf := l.Bytes(1000)
	s.AttachPayloadFrom(&l, buf)
	c := s.Clone()
	s.Release()
	if got := pool.Stats(); got.Puts != shared.Puts || got.Drops != shared.Drops {
		t.Fatal("a payload attached from a Local was recycled to the shared pool")
	}
	if s.payloadFrom != nil || s.ownsPayload {
		t.Fatal("a released segment still carries its payload's origin")
	}
	// The Local is a LIFO: what Release put there is what it hands out next.
	if again := l.Bytes(1000); &again[0] != &buf[0] {
		t.Fatal("a payload attached from a Local did not go back to it")
	} else {
		l.Recycle(again)
	}

	if c.payloadFrom != nil || !c.ownsPayload || &c.Payload[0] == &buf[0] {
		t.Fatal("a clone must own a shared-pool copy of the payload")
	}
	shared = pool.Stats()
	c.Release()
	if got := pool.Stats(); got.Puts != shared.Puts+1 {
		t.Fatal("a clone's payload was not recycled to the shared pool")
	}

	s = NewSegment() // as a rule one of the two structs released above
	s.AttachPayload(pool.Bytes(1000))
	shared = pool.Stats()
	s.Release()
	if got := pool.Stats(); got.Puts != shared.Puts+1 {
		t.Fatal("a payload attached with AttachPayload was not recycled to the shared pool")
	}
}
