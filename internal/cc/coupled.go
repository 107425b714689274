package cc

import "time"

// CoupledGroup links the congestion controllers of all subflows of one MPTCP
// connection, implementing the Linked Increases Algorithm (LIA) from
// "Design, implementation and evaluation of congestion control for Multipath
// TCP" (NSDI'11), which the paper relies on for load balancing across paths.
//
// Each subflow's window increases per ACK by
//
//	min( alpha * acked * MSS / cwnd_total , acked * MSS / cwnd_i )
//
// where alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i/rtt_i)^2.
// Decrease behaviour is standard TCP (per-subflow halving).
type CoupledGroup struct {
	members []*Coupled
	// membersBuf is the first backing store of members; append spills past it.
	membersBuf [2]*Coupled
}

// NewCoupledGroup creates an empty group. The zero CoupledGroup is one too, so
// a connection can hold its group by value; do not copy a group with members.
func NewCoupledGroup() *CoupledGroup { return &CoupledGroup{} }

// NewController creates a controller for one subflow and adds it to the
// group.
func (g *CoupledGroup) NewController(cfg Config) *Coupled {
	c := new(Coupled)
	g.Add(c, cfg)
	return c
}

// Add initialises c, a controller its subflow holds, and adds it to the group.
func (g *CoupledGroup) Add(c *Coupled, cfg Config) {
	cfg = cfg.withDefaults()
	*c = Coupled{
		cfg:      cfg,
		group:    g,
		cwnd:     cfg.MSS * cfg.InitialCwndSegments,
		ssthresh: maxSsthresh,
		srtt:     100 * time.Millisecond,
	}
	if g.members == nil {
		g.members = g.membersBuf[:0]
	}
	g.members = append(g.members, c)
}

// Remove detaches a subflow's controller from the group (subflow closed).
func (g *CoupledGroup) Remove(c *Coupled) {
	for i, m := range g.members {
		if m == c {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return
		}
	}
}

// TotalCwnd returns the sum of all member congestion windows in bytes.
func (g *CoupledGroup) TotalCwnd() int {
	total := 0
	for _, m := range g.members {
		total += m.cwnd
	}
	return total
}

// Alpha returns the group's current LIA aggressiveness parameter, for
// observability probes. It is recomputed on demand from live subflow state
// (the same computation every coupled increase uses), so sampling it never
// perturbs the controllers.
func (g *CoupledGroup) Alpha() float64 { return g.alpha() }

// alpha computes the LIA aggressiveness parameter.
func (g *CoupledGroup) alpha() float64 {
	total := float64(g.TotalCwnd())
	if total <= 0 {
		return 1
	}
	var maxTerm float64
	var sumTerm float64
	for _, m := range g.members {
		rtt := m.srtt.Seconds()
		if rtt <= 0 {
			rtt = 0.001
		}
		cw := float64(m.cwnd)
		if t := cw / (rtt * rtt); t > maxTerm {
			maxTerm = t
		}
		sumTerm += cw / rtt
	}
	if sumTerm <= 0 {
		return 1
	}
	return total * maxTerm / (sumTerm * sumTerm)
}

// Coupled is the per-subflow controller participating in a CoupledGroup.
type Coupled struct {
	cfg   Config
	group *CoupledGroup

	cwnd     int
	ssthresh int
	cap      int

	srtt         time.Duration
	caBytesAcked float64
}

// Cwnd implements Controller.
func (c *Coupled) Cwnd() int { return c.cwnd }

// Ssthresh implements Controller.
func (c *Coupled) Ssthresh() int { return c.ssthresh }

// InSlowStart implements Controller.
func (c *Coupled) InSlowStart() bool { return c.cwnd < c.ssthresh }

// Alpha returns the coupling group's current LIA alpha (see
// CoupledGroup.Alpha).
func (c *Coupled) Alpha() float64 { return c.group.alpha() }

// SRTT returns the smoothed RTT the controller is using for the coupling
// computation.
func (c *Coupled) SRTT() time.Duration { return c.srtt }

// OnAck implements Controller.
func (c *Coupled) OnAck(acked int, rtt time.Duration) {
	if rtt > 0 {
		if c.srtt == 0 {
			c.srtt = rtt
		} else {
			c.srtt = (7*c.srtt + rtt) / 8
		}
	}
	if acked <= 0 {
		return
	}
	if c.InSlowStart() {
		// Slow start remains uncoupled, as in the Linux MPTCP implementation.
		c.cwnd += acked
	} else {
		alpha := c.group.alpha()
		total := float64(c.group.TotalCwnd())
		if total <= 0 {
			total = float64(c.cwnd)
		}
		coupled := alpha * float64(acked) * float64(c.cfg.MSS) / total
		uncoupled := float64(acked) * float64(c.cfg.MSS) / float64(c.cwnd)
		inc := coupled
		if uncoupled < inc {
			inc = uncoupled
		}
		c.caBytesAcked += inc
		if c.caBytesAcked >= 1 {
			c.cwnd += int(c.caBytesAcked)
			c.caBytesAcked -= float64(int(c.caBytesAcked))
		}
	}
	c.cwnd = clampCwnd(c.cwnd, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
}

// OnFastRetransmit implements Controller.
func (c *Coupled) OnFastRetransmit() {
	c.ssthresh = max(c.cwnd/2, 2*c.cfg.MSS)
	c.cwnd = clampCwnd(c.ssthresh, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
	c.caBytesAcked = 0
}

// OnTimeout implements Controller.
func (c *Coupled) OnTimeout() {
	c.ssthresh = max(c.cwnd/2, 2*c.cfg.MSS)
	c.cwnd = clampCwnd(c.cfg.MSS, c.cfg.MSS, 1, c.cap)
	c.caBytesAcked = 0
}

// OnRecoveryExit implements Controller.
func (c *Coupled) OnRecoveryExit() {
	c.cwnd = clampCwnd(c.ssthresh, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
}

// ForceReduce implements Controller (Mechanism 2: penalizing slow subflows).
func (c *Coupled) ForceReduce() {
	c.cwnd = clampCwnd(c.cwnd/2, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
	c.ssthresh = c.cwnd
	c.caBytesAcked = 0
}

// SetCwndCap implements Controller (Mechanism 4: cwnd capping).
func (c *Coupled) SetCwndCap(capBytes int) {
	c.cap = capBytes
	c.cwnd = clampCwnd(c.cwnd, c.cfg.MSS, c.cfg.MinCwndSegments, c.cap)
}
