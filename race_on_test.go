//go:build race

package mptcpgo

// raceEnabled reports whether the test binary was built with the race
// detector (see skipAllocBudget).
const raceEnabled = true
