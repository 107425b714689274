package pool

import "testing"

func TestBytesLengthAndClass(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 256}, {256, 256}, {257, 2048}, {1460, 2048},
		{2048, 2048}, {8960, 16384}, {65536, 65536},
	}
	for _, c := range cases {
		b := Bytes(c.n)
		if len(b) != c.n {
			t.Fatalf("Bytes(%d): len=%d", c.n, len(b))
		}
		if cap(b) != c.wantCap {
			t.Fatalf("Bytes(%d): cap=%d want %d", c.n, cap(b), c.wantCap)
		}
		Recycle(b)
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	b := Bytes(1 << 20)
	if len(b) != 1<<20 {
		t.Fatalf("len=%d", len(b))
	}
	before := Stats().Puts
	Recycle(b) // must be dropped, not pooled
	if Stats().Puts != before {
		t.Fatal("oversize buffer was pooled")
	}
}

func TestRecycleReuse(t *testing.T) {
	b := Bytes(1460)
	b[0], b[1459] = 0xaa, 0xbb
	Recycle(b)
	c := Bytes(1000) // same 2048 class as the recycled buffer
	if cap(c) != cap(b) {
		t.Fatalf("expected class reuse, cap=%d", cap(c))
	}
}

func TestRecycleDropsResliced(t *testing.T) {
	b := Bytes(1460)
	before := Stats().Puts
	Recycle(b[5:]) // front-trimmed: capacity no longer matches the class
	if Stats().Puts != before {
		t.Fatal("front-trimmed slice was pooled")
	}
	Recycle(b[:10]) // tail-trimmed: capacity still matches, safe to pool
	if Stats().Puts != before+1 {
		t.Fatal("tail-trimmed slice was not pooled")
	}
}

func TestCopy(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	dst := Copy(src)
	if string(dst) != string(src) {
		t.Fatalf("copy mismatch: %v", dst)
	}
	src[0] = 99
	if dst[0] == 99 {
		t.Fatal("Copy aliases its argument")
	}
	Recycle(dst)
}

func TestSteadyStateNoAllocs(t *testing.T) {
	// Warm the class.
	for i := 0; i < 8; i++ {
		Recycle(Bytes(1460))
	}
	avg := testing.AllocsPerRun(1000, func() {
		b := Bytes(1460)
		Recycle(b)
	})
	if avg > 0 {
		t.Fatalf("Bytes/Recycle cycle allocates %.2f allocs/op; want 0", avg)
	}
}

func TestFreeListRecyclesLIFO(t *testing.T) {
	type obj struct{ n int }
	var f FreeList[obj]
	a := f.Get()
	if a == nil || a.n != 0 {
		t.Fatalf("Get on an empty list returned %v; want a new zero object", a)
	}
	b := f.Get()
	f.Put(a)
	f.Put(b)
	if got := f.Get(); got != b {
		t.Fatal("Get did not return the most recently Put object")
	}
	if got := f.Get(); got != a {
		t.Fatal("Get did not return the remaining object")
	}
	if got := f.Get(); got == a || got == b {
		t.Fatal("an object was handed out twice")
	}
}

// TestFreeListRefillsBySlab: a run of misses costs one allocation per
// freeListSlab objects, not one each, and every object handed out is distinct
// and zero.
func TestFreeListRefillsBySlab(t *testing.T) {
	type obj struct{ n, m int }
	var f FreeList[obj]
	const gets = 4 * freeListSlab
	seen := make(map[*obj]bool, gets)
	var out [gets]*obj
	allocs := testing.AllocsPerRun(1, func() {
		for i := range out {
			out[i] = f.Get()
		}
	})
	// AllocsPerRun runs the function once to warm up and once measured.
	if allocs != gets/freeListSlab {
		t.Fatalf("%d misses cost %.0f allocations, want %d slabs", gets, allocs, gets/freeListSlab)
	}
	for _, x := range out {
		if x == nil || *x != (obj{}) || seen[x] {
			t.Fatalf("Get returned %v (seen before: %v); want distinct zero objects", x, seen[x])
		}
		seen[x] = true
		x.n = 1
	}
}

// TestFreeListAllocatesLargeObjectsAlone: a miss on a list of objects larger
// than freeListSlabMax allocates that one object, so an object its owner never
// puts back is garbage on its own rather than pinning a slab.
func TestFreeListAllocatesLargeObjectsAlone(t *testing.T) {
	type big struct{ b [freeListSlabMax + 1]byte }
	var f FreeList[big]
	var keep [4]*big
	allocs := testing.AllocsPerRun(1, func() {
		for i := range keep {
			keep[i] = f.Get()
		}
	})
	if allocs != float64(len(keep)) {
		t.Fatalf("%d misses cost %.0f allocations, want one each", len(keep), allocs)
	}
	f.Put(keep[0])
	if got := f.Get(); got != keep[0] {
		t.Fatal("Get did not return the object Put back")
	}
}
