package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mptcpgo"
)

// traceReport is what the traced run of one workload adds to a childReport:
// the CPU profile folded by layer, the facade Telemetry's phases and
// counters, runtime/metrics deltas, pool counters and the harness's spans.
// The childReport's Iterations are then the profiled ones.
type traceReport struct {
	Profile foldedProfile `json:"profile"`
	// PlainWallS and TelemetryWallS are alternating iterations without and
	// with a Telemetry attached, CPU profile off: their medians give the
	// observer overhead.
	PlainWallS     []float64 `json:"plain_wall_s"`
	TelemetryWallS []float64 `json:"telemetry_wall_s"`
	// CPUSeconds is process CPU time over the profiled iterations (the
	// report's Iterations).
	CPUSeconds float64 `json:"cpu_seconds"`
	// Phases is wall seconds per Telemetry phase, Counters the Telemetry
	// totals, both summed over the profiled iterations.
	Phases     map[string]float64 `json:"phases"`
	Counters   map[string]float64 `json:"counters"`
	GCCycles   uint64             `json:"gc_cycles"`
	PoolGets   uint64             `json:"pool_gets"`
	PoolMisses uint64             `json:"pool_misses"`
	Spans      []span             `json:"spans"`
}

func newTraceReport() *traceReport {
	return &traceReport{Phases: map[string]float64{}, Counters: map[string]float64{}}
}

// telemetryMode says whether iterations attach a facade Telemetry, and
// where what it exposes is summed.
type telemetryMode struct {
	into *traceReport
}

func (m telemetryMode) attach() *mptcpgo.Telemetry {
	if m.into == nil {
		return nil
	}
	return mptcpgo.NewTelemetry("perf")
}

// collect reads the Telemetry's Prometheus exposition, the only window the
// facade gives on its phases and counters, and adds it to the report.
func (m telemetryMode) collect(t *mptcpgo.Telemetry) {
	if t == nil {
		return
	}
	defer t.Close()
	var buf bytes.Buffer
	t.WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sep := strings.LastIndexByte(line, ' ')
		if sep < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sep+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sep]
		if phase, ok := strings.CutPrefix(name, `phase_wall_seconds_total{phase="`); ok {
			m.into.Phases[strings.TrimSuffix(phase, `"}`)] += v
		} else if !strings.ContainsRune(name, '{') {
			m.into.Counters[name] += v
		}
	}
}

// gcCycles returns how many garbage collections have completed so far.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runTraced is the traced run: after the usual warm-up it first times
// alternating plain and Telemetry-attached iterations (profile off) for the
// observer overhead, then profiles iterations with Telemetry attached. With
// -iters N both parts run N iterations; with -seconds the overhead pairs get
// a third of the span and the profile the rest.
func (r *runner) runTraced() error {
	if err := r.warmUp(); err != nil {
		return err
	}
	a, rep := r.a, r.rep
	tr := newTraceReport()
	rep.Trace = tr

	// Pairs, so drift on a shared box hits both sides alike, in alternating
	// order, so neither side always inherits the other's garbage. What the
	// attached side exposes is discarded; only its wall-clock counts.
	sides := [2]telemetryMode{{}, {into: newTraceReport()}}
	begin := time.Now()
	for i := 0; ; i++ {
		if a.iters > 0 && i >= a.iters {
			break
		}
		if a.iters == 0 && i >= variants && time.Since(begin) >= a.seconds/3 {
			break
		}
		var wall [2]float64
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			d, err := r.iterate(i, sides[side], nil, 0)
			if err != nil {
				return err
			}
			wall[side] = d.Seconds()
		}
		tr.PlainWallS = append(tr.PlainWallS, wall[0])
		tr.TelemetryWallS = append(tr.TelemetryWallS, wall[1])
	}

	sp := &spanLog{}
	var prof bytes.Buffer
	pool0 := poolCounters()
	cycles0 := gcCycles()
	cpu0 := processCPU()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	pass := sp.begin("traced-pass", 0)
	its, err := r.timedLoop(a.iters, a.seconds*2/3, telemetryMode{into: tr}, sp, pass)
	sp.end(pass)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	tr.CPUSeconds = processCPU() - cpu0
	pool1 := poolCounters()
	rep.Iterations = its
	tr.GCCycles = gcCycles() - cycles0
	tr.PoolGets = pool1.Gets - pool0.Gets
	tr.PoolMisses = pool1.Misses - pool0.Misses
	tr.Spans = sp.spans

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	tr.Profile = foldProfile(samples)
	if a.foldOut == "" {
		return nil
	}
	f, err := os.Create(a.foldOut)
	if err != nil {
		return err
	}
	if err := writeFolded(f, samples); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
