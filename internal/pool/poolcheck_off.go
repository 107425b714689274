//go:build !poolcheck

package pool

// checkRelease and checkAcquire are the hooks of the poolcheck build (see
// poolcheck_on.go); without the tag they compile to nothing.
func checkRelease([]byte) {}
func checkAcquire([]byte) {}
