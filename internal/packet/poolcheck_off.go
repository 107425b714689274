//go:build !poolcheck

package packet

// poisonReleased and clearPoison are the hooks of the poolcheck build (see
// poolcheck_on.go); without the tag they compile to nothing.
func poisonReleased(*Segment) {}
func clearPoison(*Segment)    {}
