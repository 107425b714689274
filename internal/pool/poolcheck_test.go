//go:build poolcheck

package pool

import "testing"

func TestPoolcheckPoisonsAndCatchesDoubleRelease(t *testing.T) {
	b := Bytes(1460)
	for i := range b {
		b[i] = 1
	}
	Recycle(b)
	for i, v := range b {
		if v != poison {
			t.Fatalf("byte %d is %#x after Recycle; want poison %#x", i, v, poison)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Recycle of the same buffer did not panic")
		}
	}()
	Recycle(b)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestPoolcheckCoversLocal: the front poisons what it takes back and catches
// a second release wherever the two happen: both on the Local, one on the
// Local and one on the shared pool, and one on either side of the spill that
// moved the buffer down to the shared class.
func TestPoolcheckCoversLocal(t *testing.T) {
	var l Local
	b := l.Bytes(1460)
	for i := range b {
		b[i] = 1
	}
	l.Recycle(b)
	for i, v := range b {
		if v != poison {
			t.Fatalf("byte %d is %#x after Local.Recycle; want poison %#x", i, v, poison)
		}
	}
	mustPanic(t, "second Recycle on the Local", func() { l.Recycle(b) })
	mustPanic(t, "Recycle on the shared pool after one on the Local", func() { Recycle(b) })

	// Fill the stack past its bound: b, the oldest, spills to the shared class.
	fill := make([][]byte, classes[1].keep)
	for i := range fill {
		fill[i] = make([]byte, 1460, 2048)
	}
	for _, f := range fill {
		l.Recycle(f)
	}
	for _, held := range l.stacks[1].buf[:l.stacks[1].n] {
		if &held[0] == &b[0] {
			t.Fatal("the oldest buffer is still on the stack after a spill")
		}
	}
	mustPanic(t, "Recycle after the buffer spilled to the shared class", func() { l.Recycle(b) })
	l.Flush()
}

// TestPoolcheckMark: a poisoned Mark fails its Check, and building its struct
// anew clears it.
func TestPoolcheckMark(t *testing.T) {
	type obj struct {
		mark Mark
		n    int
	}
	x := &obj{n: 1}
	x.mark.Check("obj")
	*x = obj{}
	x.mark.Poison()
	mustPanic(t, "Check of a poisoned Mark", func() { x.mark.Check("obj") })
	*x = obj{n: 2}
	x.mark.Check("obj")
}
