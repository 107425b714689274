package main

import (
	"time"

	"mptcpgo/internal/sim"
)

var simDrivers = []driver{
	{ns: "sim.schedule_step_ns", ops: 1_000_000, run: simScheduleStep},
	{ns: "sim.timer_rearm_ns", ops: 4_000_000, run: simTimerRearm},
}

// simScheduleStep schedules events across a 1 ms horizon in batches and
// steps the simulator through them: one operation is one Schedule plus the
// Step that fires it.
func simScheduleStep(n int) (int, error) {
	s := sim.New(1)
	fired := 0
	fn := func() { fired++ }
	const batch = 1024
	for done := 0; done < n; done += batch {
		for i := 0; i < batch; i++ {
			s.Schedule(time.Duration(i*977%1000)*time.Microsecond, fn)
		}
		for s.Step() {
		}
	}
	return fired, nil
}

// simTimerRearm re-arms a pending timer, the retransmission timer's pattern
// on every ACK: the previous deadline is cancelled and a new one placed.
func simTimerRearm(n int) (int, error) {
	s := sim.New(1)
	t := s.NewTimer(func() {})
	for i := 0; i < n; i++ {
		t.Reset(time.Duration(200+i%64) * time.Millisecond)
	}
	t.Stop()
	return n, nil
}
