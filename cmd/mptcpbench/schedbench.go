package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/sim"
)

// runSchedScenario is the scheduler-equivalence pin behind
// '-scenario sched-equivalence': it replays deterministic timer-churn,
// schedule/cancel and reserved-seq workloads on both scheduler
// implementations (timing wheel and binary heap) and reports a checksum of
// each firing order. The checksums are pure functions of the workload — no
// wall-clock, no map iteration — so the quick JSON is byte-stable and CI
// commits it as bench/BENCH_sched.json under the freshness gate: any future
// scheduler change that reorders events flips a checksum and fails the diff.
// Wheel-vs-heap wall-clock goes to stderr only.
func runSchedScenario(o scenarioOptions) (*experiments.Result, error) {
	ops := o.members

	res := &experiments.Result{
		ID:    "sched-equivalence",
		Title: fmt.Sprintf("scheduler equivalence: wheel vs heap over %d-op deterministic workloads", ops),
		Seed:  o.Seed, Quick: o.Quick,
	}
	table := experiments.NewTable("firing-order checksums (wheel must equal heap)",
		"workload", "events", "finalTime", "checksum", "identical")
	allIdentical := true
	for _, w := range schedWorkloads {
		startW := time.Now()
		wheelSum, wheelEvents, wheelEnd := w.run(sim.SchedulerWheel, o.Seed, ops)
		wallWheel := time.Since(startW)
		startH := time.Now()
		heapSum, heapEvents, heapEnd := w.run(sim.SchedulerHeap, o.Seed, ops)
		wallHeap := time.Since(startH)
		identical := wheelSum == heapSum && wheelEvents == heapEvents && wheelEnd == heapEnd
		allIdentical = allIdentical && identical
		table.AddRow(w.name,
			fmt.Sprintf("%d", wheelEvents),
			fmt.Sprintf("%v", wheelEnd),
			fmt.Sprintf("%016x", wheelSum),
			fmt.Sprintf("%v", identical))
		fmt.Fprintf(os.Stderr, "sched-equivalence: %-16s wheel %v, heap %v wall-clock\n",
			w.name, wallWheel.Round(time.Microsecond), wallHeap.Round(time.Microsecond))
	}
	table.AddNote("checksum folds every (eventID, firingTime) pair in execution order; both schedulers must produce the same stream")
	if !allIdentical {
		table.AddNote("SCHEDULER DIVERGENCE: the wheel fired events in a different order than the heap reference")
	}
	res.AddTable(table)
	if !allIdentical {
		return res, fmt.Errorf("sched-equivalence: wheel and heap schedulers diverged")
	}
	return res, nil
}

// schedWorkloads are the deterministic op streams the scenario replays. Each
// returns (checksum over the firing order, events fired, final clock).
var schedWorkloads = []struct {
	name string
	run  func(kind sim.SchedulerKind, seed uint64, ops int) (uint64, uint64, time.Duration)
}{
	{"timer-storm", schedTimerStorm},
	{"schedule-cancel", schedScheduleCancel},
	{"reserved-seq", schedReservedSeq},
}

// schedHash folds one (id, at) firing into an FNV-1a accumulator.
func schedHash(h uint64, id int64, at time.Duration) uint64 {
	f := fnv.New64a()
	var buf [24]byte
	for i, v := range [3]uint64{h, uint64(id), uint64(at)} {
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(v >> (8 * j))
		}
	}
	f.Write(buf[:])
	return f.Sum64()
}

// schedTimerStorm re-arms a population of timers with RTO-like pseudo-random
// delays; every fire re-arms, so the wheel's in-place Reset path dominates.
func schedTimerStorm(kind sim.SchedulerKind, seed uint64, ops int) (uint64, uint64, time.Duration) {
	s := sim.NewWithScheduler(seed, kind)
	rng := sim.NewRNG(sim.DeriveSeed(seed, 1))
	var sum uint64
	var fired uint64
	const timers = 256
	tms := make([]*sim.Timer, timers)
	rearms := ops
	for i := range tms {
		id := int64(i)
		tms[i] = s.NewTimer(func() {
			fired++
			sum = schedHash(sum, id, s.Now())
			if rearms > 0 {
				rearms--
				tms[id].Reset(time.Duration(1+rng.Intn(400)) * time.Millisecond)
			}
		})
		tms[i].Reset(time.Duration(1+rng.Intn(400)) * time.Millisecond)
	}
	// A churn layer on top: re-arm pending timers without letting them fire,
	// like ACK clocking does to the RTO.
	for i := 0; i < ops; i++ {
		tms[rng.Intn(timers)].Reset(time.Duration(1+rng.Intn(400)) * time.Millisecond)
		if i%8 == 0 {
			s.Step()
		}
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return sum, fired, s.Now()
}

// schedScheduleCancel mixes one-shot schedules across every wheel level
// (sub-tick to beyond the overflow horizon) with cancellations and stretches
// of stepping.
func schedScheduleCancel(kind sim.SchedulerKind, seed uint64, ops int) (uint64, uint64, time.Duration) {
	s := sim.NewWithScheduler(seed, kind)
	rng := sim.NewRNG(sim.DeriveSeed(seed, 2))
	delays := []time.Duration{
		0, 1, 16*time.Microsecond + 383*time.Nanosecond, 17 * time.Microsecond,
		time.Millisecond, 64 * time.Millisecond, 4 * time.Second, 5 * time.Minute, 5 * time.Hour,
	}
	var sum uint64
	var fired uint64
	var pending []*sim.Event
	nextID := int64(0)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			id := nextID
			nextID++
			pending = append(pending, s.Schedule(delays[rng.Intn(len(delays))], func() {
				fired++
				sum = schedHash(sum, id, s.Now())
			}))
		case 2:
			if len(pending) > 0 {
				s.Cancel(pending[rng.Intn(len(pending))])
			}
		case 3:
			s.Step()
		}
		if len(pending) > 4096 {
			pending = pending[2048:]
		}
	}
	// Drain what remains, bounded so the far-future tail does not dominate.
	if err := s.RunUntil(s.Now() + 10*time.Second); err != nil {
		panic(err)
	}
	return sum, fired, s.Now()
}

// schedReservedSeq exercises the ReserveSeq/ScheduleArgsAtSeq pair the burst
// link uses: seqs are reserved ahead and attached to events scheduled later,
// interleaved with ordinary schedules at the same instants.
func schedReservedSeq(kind sim.SchedulerKind, seed uint64, ops int) (uint64, uint64, time.Duration) {
	s := sim.NewWithScheduler(seed, kind)
	rng := sim.NewRNG(sim.DeriveSeed(seed, 3))
	var sum uint64
	var fired uint64
	note := func(a, _ any) {
		fired++
		sum = schedHash(sum, int64(a.(int)), s.Now())
	}
	id := 0
	for i := 0; i < ops; i++ {
		at := s.Now() + time.Duration(rng.Intn(2000))*time.Microsecond
		seq := s.ReserveSeq()
		myID := id
		id += 2
		// The plain schedule consumes a later seq but targets the same instant:
		// firing order between the two is decided purely by seq.
		s.Schedule(at-s.Now(), func() {
			fired++
			sum = schedHash(sum, int64(myID+1), s.Now())
		})
		s.ScheduleArgsAtSeq(at, seq, note, myID, nil)
		if i%4 == 0 {
			s.Step()
		}
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return sum, fired, s.Now()
}
