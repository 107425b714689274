package main

import (
	"fmt"
	"runtime"
	"time"
)

// A driver times one layer's public functions from outside the program: a
// fixed-count loop, repeated driverReps times, reported as the median ns/op
// plus allocations per operation. Each layer's drivers live in its own
// layer_<pkg>.go, so a later change can re-bind one layer without touching
// the rest.
type driver struct {
	// ns, allocs and allocB name the per-layer metrics the driver reports;
	// an empty name means that figure is not reported.
	ns, allocs, allocB string
	// ops is how many operations one repetition asks for.
	ops int
	// run performs about n operations and returns how many it did (a stream
	// driver asked for n segments reports the segments it really sent).
	run func(n int) (int, error)
}

const driverReps = 5

// drivers lists every layer driver in per-layer table order.
var drivers = concat(
	simDrivers, netemDrivers, packetDrivers, poolDrivers, bufferDrivers,
	tcpDrivers, ccDrivers, schedDrivers, coreDrivers, httpsimDrivers,
	capacityDrivers, faultsDrivers,
)

// runDrivers measures every driver and returns metric name → value. quick
// divides the operation counts by 20.
func runDrivers(quick bool, sp *spanLog) (map[string]float64, error) {
	out := map[string]float64{}
	root := sp.begin("drivers", 0)
	defer sp.end(root)
	for _, d := range drivers {
		ops := d.ops
		if quick {
			ops = max(ops/20, 1)
		}
		id := sp.begin("driver "+d.ns, root)
		var ns, allocs, bytes []float64
		for rep := 0; rep < driverReps; rep++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			start := time.Now()
			done, err := d.run(ops)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("driver %s: %w", d.ns, err)
			}
			if done <= 0 {
				return nil, fmt.Errorf("driver %s did no work", d.ns)
			}
			n := float64(done)
			ns = append(ns, float64(elapsed.Nanoseconds())/n)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
			bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		}
		sp.end(id)
		out[d.ns] = median(ns)
		if d.allocs != "" {
			out[d.allocs] = median(allocs)
		}
		if d.allocB != "" {
			out[d.allocB] = median(bytes)
		}
	}
	return out, nil
}
