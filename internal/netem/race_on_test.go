//go:build race

package netem

// raceEnabled reports whether the test binary was built with the race
// detector.
const raceEnabled = true
