package cc

import "time"

// NewReno is the standard TCP NewReno congestion controller: slow start,
// congestion avoidance with one MSS per RTT, multiplicative decrease on fast
// retransmit and a reset to the restart window on timeout.
type NewReno struct {
	cfg      Config
	cwnd     int
	ssthresh int
	cap      int

	// caBytesAcked accumulates acknowledged bytes during congestion
	// avoidance so that cwnd grows by one MSS per cwnd bytes acknowledged.
	caBytesAcked int
}

// NewNewReno returns a NewReno controller.
func NewNewReno(cfg Config) *NewReno {
	cfg = cfg.withDefaults()
	return &NewReno{
		cfg:      cfg,
		cwnd:     cfg.MSS * cfg.InitialCwndSegments,
		ssthresh: maxSsthresh,
	}
}

// Cwnd implements Controller.
func (c *NewReno) Cwnd() int { return c.cwnd }

// Ssthresh implements Controller.
func (c *NewReno) Ssthresh() int { return c.ssthresh }

// InSlowStart implements Controller.
func (c *NewReno) InSlowStart() bool { return c.cwnd < c.ssthresh }

// OnAck implements Controller.
func (c *NewReno) OnAck(acked int, _ time.Duration) {
	if acked <= 0 {
		return
	}
	if c.InSlowStart() {
		c.cwnd += acked
	} else {
		c.caBytesAcked += acked
		if c.caBytesAcked >= c.cwnd {
			c.caBytesAcked -= c.cwnd
			c.cwnd += c.cfg.MSS
		}
	}
	c.cwnd = clampCwnd(c.cwnd, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
}

// OnFastRetransmit implements Controller.
func (c *NewReno) OnFastRetransmit() {
	c.ssthresh = max(c.cwnd/2, 2*c.cfg.MSS)
	c.cwnd = clampCwnd(c.ssthresh, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
	c.caBytesAcked = 0
}

// OnTimeout implements Controller.
func (c *NewReno) OnTimeout() {
	c.ssthresh = max(c.cwnd/2, 2*c.cfg.MSS)
	c.cwnd = clampCwnd(c.cfg.MSS, c.cfg.MSS, 1, c.cap)
	c.caBytesAcked = 0
}

// OnRecoveryExit implements Controller.
func (c *NewReno) OnRecoveryExit() {
	c.cwnd = clampCwnd(c.ssthresh, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
}

// ForceReduce implements Controller (Mechanism 2).
func (c *NewReno) ForceReduce() {
	c.cwnd = clampCwnd(c.cwnd/2, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
	c.ssthresh = c.cwnd
	c.caBytesAcked = 0
}

// SetCwndCap implements Controller (Mechanism 4).
func (c *NewReno) SetCwndCap(capBytes int) {
	c.cap = capBytes
	c.cwnd = clampCwnd(c.cwnd, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
}
