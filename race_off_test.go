//go:build !race

package mptcpgo

const raceEnabled = false
