//go:build !race

package capacity

const raceEnabled = false
