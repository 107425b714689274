// Package cc implements the congestion controllers used by the stack: TCP
// NewReno for single-path TCP and for decoupled (ablation) MPTCP subflows,
// and the coupled "Linked Increases" algorithm (LIA, Wischik et al.,
// NSDI'11) referenced by the paper for MPTCP subflows.
//
// Controllers are expressed in bytes, not packets, matching the Linux
// implementation the paper builds on.
package cc

import "time"

// Controller is the per-flow (or per-subflow) congestion control interface
// consumed by the TCP endpoint.
type Controller interface {
	// Cwnd returns the current congestion window in bytes.
	Cwnd() int
	// Ssthresh returns the slow-start threshold in bytes.
	Ssthresh() int
	// InSlowStart reports whether the controller is in slow start.
	InSlowStart() bool

	// OnAck is called for every ACK that advances the cumulative
	// acknowledgement point by acked bytes; rtt is the latest RTT sample (or
	// zero when unavailable).
	OnAck(acked int, rtt time.Duration)
	// OnFastRetransmit is called when entering fast-recovery (triple
	// duplicate ACK).
	OnFastRetransmit()
	// OnTimeout is called on a retransmission timeout.
	OnTimeout()
	// OnRecoveryExit is called when fast recovery ends.
	OnRecoveryExit()

	// ForceReduce halves the congestion window and sets ssthresh to the
	// reduced value. It implements Mechanism 2 (penalizing slow subflows,
	// §4.2) and therefore must be callable from outside the loss-recovery
	// machinery.
	ForceReduce()

	// SetCwndCap installs an upper bound on cwnd in bytes (0 removes the
	// cap). Used by Mechanism 4 (§4.2) to limit buffer bloat on paths with
	// excessive network buffering.
	SetCwndCap(capBytes int)
}

// Config carries the parameters shared by all controllers.
type Config struct {
	// MSS is the maximum segment size in bytes.
	MSS int
	// InitialCwnd is the initial congestion window in segments (default 10,
	// per modern Linux).
	InitialCwndSegments int
	// MinCwndSegments is the floor applied after any reduction (default 2).
	MinCwndSegments int
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.InitialCwndSegments <= 0 {
		c.InitialCwndSegments = 10
	}
	if c.MinCwndSegments <= 0 {
		c.MinCwndSegments = 2
	}
	return c
}

const maxSsthresh = 1 << 30

// clampCwnd applies the floor, the cap and a sanity ceiling.
func clampCwnd(cwnd, mss, minSegments, cap int) int {
	if min := mss * minSegments; cwnd < min {
		cwnd = min
	}
	if cap > 0 && cwnd > cap {
		cwnd = cap
	}
	if cwnd > maxSsthresh {
		cwnd = maxSsthresh
	}
	return cwnd
}
