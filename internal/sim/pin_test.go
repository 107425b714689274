package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// TestFiringOrderChecksums pins the simulator's firing order over three
// deterministic workloads at seed 42, 20 000 ops each: a checksum folding
// every (event, firing time) pair in execution order, the events fired and
// the final clock. The values are what the binary-heap reference produced
// on the same workloads, so a scheduler change that reorders, drops or
// duplicates an event anywhere in them fails here.
func TestFiringOrderChecksums(t *testing.T) {
	const seed, ops = 42, 20_000
	for _, w := range []struct {
		name   string
		run    func(seed uint64, ops int) (uint64, uint64, time.Duration)
		events uint64
		final  string
		sum    string
	}{
		{"timer-storm", pinTimerStorm, 20256, "17.7s", "35b72833cca30786"},
		{"schedule-cancel", pinScheduleCancel, 5282, "15h10m22.781817595s", "21f8b9fec59c07cc"},
		{"reserved-seq", pinReservedSeq, 40000, "4.239ms", "cebce9702571fbeb"},
	} {
		sum, events, final := w.run(seed, ops)
		if got := fmt.Sprintf("%016x", sum); events != w.events || final.String() != w.final || got != w.sum {
			t.Errorf("%s: %d events, final time %v, checksum %s; want %d, %s, %s",
				w.name, events, final, got, w.events, w.final, w.sum)
		}
	}
}

// pinHash folds one (id, at) firing into an FNV-1a accumulator.
func pinHash(h uint64, id int64, at time.Duration) uint64 {
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

// pinTimerStorm re-arms a population of timers with RTO-like pseudo-random
// delays; every fire re-arms, so the in-place Reset path dominates.
func pinTimerStorm(seed uint64, ops int) (uint64, uint64, time.Duration) {
	s := New(seed)
	rng := NewRNG(DeriveSeed(seed, 1))
	var sum, fired uint64
	const timers = 256
	tms := make([]*Timer, timers)
	rearms := ops
	for i := range tms {
		id := int64(i)
		tms[i] = s.NewTimer(func() {
			fired++
			sum = pinHash(sum, id, s.Now())
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

// pinScheduleCancel mixes one-shot schedules across every wheel level
// (sub-tick to beyond the overflow horizon) with cancellations and stretches
// of stepping.
func pinScheduleCancel(seed uint64, ops int) (uint64, uint64, time.Duration) {
	s := New(seed)
	rng := NewRNG(DeriveSeed(seed, 2))
	delays := []time.Duration{
		0, 1, 16*time.Microsecond + 383*time.Nanosecond, 17 * time.Microsecond,
		time.Millisecond, 64 * time.Millisecond, 4 * time.Second, 5 * time.Minute, 5 * time.Hour,
	}
	var sum, fired uint64
	var pending []*Event
	nextID := int64(0)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			id := nextID
			nextID++
			pending = append(pending, s.Schedule(delays[rng.Intn(len(delays))], func() {
				fired++
				sum = pinHash(sum, id, s.Now())
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

// pinReservedSeq exercises the ReserveSeq/ScheduleArgsAtSeq pair the burst
// link uses: seqs are reserved ahead and attached to events scheduled later,
// interleaved with ordinary schedules at the same instants.
func pinReservedSeq(seed uint64, ops int) (uint64, uint64, time.Duration) {
	s := New(seed)
	rng := NewRNG(DeriveSeed(seed, 3))
	var sum, fired uint64
	note := func(a, _ any) {
		fired++
		sum = pinHash(sum, int64(a.(int)), s.Now())
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
			sum = pinHash(sum, int64(myID+1), s.Now())
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
