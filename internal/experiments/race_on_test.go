//go:build race

package experiments

// raceEnabled reports whether the test binary was built with the race
// detector.
const raceEnabled = true
