// Package sched provides the packet scheduler that decides which subflow the
// next chunk of connection-level data is sent on. The policy is the one the
// paper's implementation uses: "MPTCP will send a new packet on the lowest
// delay link that has space in its congestion window" (§4.2).
package sched

import "time"

// Candidate is one subflow from the scheduler's point of view.
type Candidate interface {
	// SRTT returns the subflow's smoothed round-trip time estimate.
	SRTT() time.Duration
	// SendSpace returns how many bytes the subflow could transmit right now
	// (congestion-window allowance minus in-flight data).
	SendSpace() int
	// Usable reports whether the subflow is established and not failed.
	Usable() bool
	// Backup reports whether the subflow was negotiated as a backup path
	// (MP_JOIN B-flag); backup subflows are only used when no regular
	// subflow is usable.
	Backup() bool
}

// LowestRTT is the scheduler: among subflows with congestion-window space,
// pick the one with the smallest smoothed RTT.
type LowestRTT struct{}

// Pick returns the index into candidates of the subflow to use for a chunk of
// the given size, or -1 if no subflow can send now. Non-backup subflows are
// preferred and ties go to the earliest index. It allocates nothing: the
// scheduler runs once per transmitted chunk.
func (LowestRTT) Pick(candidates []Candidate, size int) int {
	best, bestBackup := -1, -1
	var bestS, bestBackupS time.Duration
	for i, c := range candidates {
		if !c.Usable() || c.SendSpace() < size {
			continue
		}
		s := c.SRTT()
		if c.Backup() {
			if bestBackup == -1 || s < bestBackupS {
				bestBackup, bestBackupS = i, s
			}
		} else if best == -1 || s < bestS {
			best, bestS = i, s
		}
	}
	if best != -1 {
		return best
	}
	return bestBackup
}

// New returns the scheduler. Lowest-RTT is the only policy, so the name is
// ignored.
func New(name string) LowestRTT { return LowestRTT{} }
