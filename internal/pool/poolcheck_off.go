//go:build !poolcheck

package pool

// checkRelease and checkAcquire are the hooks of the poolcheck build (see
// poolcheck_on.go); without the tag they compile to nothing.
func checkRelease([]byte) {}
func checkAcquire([]byte) {}

// Mark is the poolcheck flag of a struct a FreeList holds (poolcheck_on.go);
// without the tag it takes no space and its methods do nothing. Declare it
// anywhere but last in a struct: a trailing zero-size field is padded.
type Mark struct{}

// Poison marks the struct as lying on a free list.
func (*Mark) Poison() {}

// Check panics if the struct lies on a free list; what names it.
func (*Mark) Check(string) {}
