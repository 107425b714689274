package pool

import "unsafe"

// freeListCap bounds how many objects a FreeList retains; beyond it, Put
// drops the object to the garbage collector. A shard's deepest windows (a few
// 2 MiB send buffers of MSS-sized chunks) stay well inside it.
const freeListCap = 1 << 14

// freeListSlab is how many small objects one miss allocates: a shard's
// high-water mark is paid slab by slab, not object by object. A slab pinned
// by one live object costs nothing while the world that holds it lives; when
// its simulator closes, Retire drops the small objects, since a free one
// would keep its slab-mates, which the closed world may still hold, alive in
// the next world.
const freeListSlab = 64

// freeListSlabMax is the largest object a miss allocates a slab of. A bigger
// one (a connection's structs) is allocated alone: its allocation is cheap
// beside its size, and one its owner keeps and never puts back pins no
// neighbours, so the garbage collector takes it on its own as for new(T), and
// a free one may serve the next world (Retire).
const freeListSlabMax = 256

// FreeList recycles structs of one type for code that runs on a single
// goroutine — in practice everything driven by one sim.Simulator, which is
// where the lists hang (sim.Local), so all the connections a shard creates
// over its lifetime share one warm list per type. It takes no locks and is
// not safe for concurrent use. The zero value is an empty list.
//
// Put stores the object as it is: the owner zeroes it first, so that a free
// object neither leaks state into its next user nor pins what it pointed to.
type FreeList[T any] struct {
	free []*T
	slab []T // unused rest of the last slab allocated on a miss
}

// Get returns a recycled object, or a new zero one when the list is empty.
func (f *FreeList[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		var zero T
		if unsafe.Sizeof(zero) > freeListSlabMax {
			return new(T)
		}
		if len(f.slab) == 0 {
			f.slab = make([]T, freeListSlab)
		}
		x := &f.slab[0]
		f.slab = f.slab[1:]
		return x
	}
	x := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return x
}

// Retire readies the list for the next simulator once its own is closed
// (sim.Retirer): it keeps the objects allocated alone, which pin nothing, and
// drops the slab-allocated ones and the unused rest of the last slab.
func (f *FreeList[T]) Retire() {
	var zero T
	if unsafe.Sizeof(zero) > freeListSlabMax {
		return
	}
	clear(f.free)
	f.free = f.free[:0]
	f.slab = nil
}

// Put hands x back for reuse. The caller must not touch x afterwards.
func (f *FreeList[T]) Put(x *T) {
	if len(f.free) < freeListCap {
		f.free = append(f.free, x)
	}
}
