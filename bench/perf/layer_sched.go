package main

import (
	"fmt"
	"time"

	"mptcpgo/internal/sched"
)

var schedDrivers = []driver{
	{ns: "sched.pick_ns", ops: 4_000_000, run: schedPick},
}

// stubSubflow is a subflow as the scheduler sees it.
type stubSubflow struct {
	srtt  time.Duration
	space int
}

func (s stubSubflow) SRTT() time.Duration { return s.srtt }
func (s stubSubflow) SendSpace() int      { return s.space }
func (s stubSubflow) Usable() bool        { return true }
func (s stubSubflow) Backup() bool        { return false }

// schedPick asks the default scheduler to place one MSS on one of two
// subflows, once per transmitted chunk in the real stack.
func schedPick(n int) (int, error) {
	sc := sched.New("lowest-rtt")
	cands := []sched.Candidate{
		stubSubflow{srtt: 20 * time.Millisecond, space: 64 << 10},
		stubSubflow{srtt: time.Millisecond, space: 64 << 10},
	}
	picked := 0
	for i := 0; i < n; i++ {
		picked += sc.Pick(cands, 1460)
	}
	if picked != n {
		return 0, fmt.Errorf("scheduler picked the slow subflow %d times", n-picked)
	}
	return n, nil
}
