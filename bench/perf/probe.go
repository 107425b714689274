package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// The sandboxes this benchmark runs on share their memory system with
// neighbours that move the speed of memory-bound code by tens of per cent
// over minutes, with no steal time to show for it (README, "Run-to-run
// spread"). A timing taken alone would swing more than the widest bound a
// metric may have. So each child times a fixed memory kernel, the probe,
// just before every timed iteration, and host timings are scaled to the
// speed the probe saw: seconds × probeRefS ÷ probe seconds, the time the work
// would have taken on a machine that runs the probe in probeRefS. An
// iteration is scaled by the probe just before it, a pass's set-up by the
// median probe of the iterations that follow it. The unscaled figure is
// reported beside it as `raw`.

const (
	// probeBufBytes is the size of each probe buffer: well beyond a core's
	// private caches, so the kernel runs out of the shared cache and memory.
	probeBufBytes = 16 << 20
	// probeRefS is the probe's nominal duration: about what the reference
	// box (2 vCPU Xeon 2.1 GHz) takes when it is undisturbed, so scaled and
	// raw seconds agree there. It is part of the metrics' definition and
	// must never change.
	probeRefS = 0.0045
)

// speedProbe owns one source and one destination buffer per thread. They are
// mapped outside the Go heap, so the garbage collector's pacing does not see
// them, and stay resident for the life of the process, so the memory they
// hold is a constant that peak_rss_mb subtracts.
type speedProbe struct {
	src, dst [][]byte
}

func newSpeedProbe(threads int) (*speedProbe, error) {
	p := &speedProbe{}
	for i := 0; i < 2*threads; i++ {
		buf, err := syscall.Mmap(-1, 0, probeBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("map probe buffer: %w", err)
		}
		if i%2 == 0 {
			p.src = append(p.src, buf)
		} else {
			p.dst = append(p.dst, buf)
		}
	}
	p.measure() // touch every page
	return p, nil
}

// residentKB is the memory the probe's buffers hold.
func (p *speedProbe) residentKB() int64 {
	return int64(len(p.src)+len(p.dst)) * probeBufBytes / 1024
}

// measure runs the kernel on every thread at once and returns the mean
// time a thread took: one read-modify-write of each cache line of the source
// buffer, then a copy into the destination, the two access patterns (pointer
// walks over a large heap, memmove) the program spends its time in.
func (p *speedProbe) measure() time.Duration {
	var wg sync.WaitGroup
	took := make([]time.Duration, len(p.src))
	for i := range p.src {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			src := p.src[i]
			var sum byte
			for j := 0; j < len(src); j += 64 {
				sum += src[j]
				src[j] = sum
			}
			copy(p.dst[i], src)
			took[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	var total time.Duration
	for _, d := range took {
		total += d
	}
	return total / time.Duration(len(took))
}
