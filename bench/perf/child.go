package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

const (
	// warmups is how many untimed iterations a child runs before it starts
	// timing: pools fill, the heap reaches its working size and lazy set-up
	// ends.
	warmups = 3
	// variants is how many scenario seeds one run draws from its --seed.
	// Iterations cycle through them, so a run's numbers average over four
	// sets of inputs and move less from one --seed to the next.
	variants = 4
)

// variantSeed is the scenario seed of iteration i of a run.
func variantSeed(seed uint64, i int) uint64 { return seed*variants + uint64(i%variants) }

// iteration is the host-side cost of one timed iteration. ProbeS is what the
// machine-speed probe took just before it.
type iteration struct {
	Variant    int     `json:"variant"`
	WallS      float64 `json:"wall_s"`
	ProbeS     float64 `json:"probe_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// variantOutcome is what every iteration on one scenario seed must produce.
type variantOutcome struct {
	Digest string             `json:"digest"`
	Sim    map[string]float64 `json:"sim"`
	Counts map[string]float64 `json:"counts"`
}

// childReport is what one workload-pass, run in its own process, prints as
// its last line of standard output.
type childReport struct {
	Workload string `json:"workload"`
	// SetupS is process start → first timed iteration, host seconds, less
	// the time it took to build the probe.
	SetupS     float64     `json:"setup_s"`
	Iterations []iteration `json:"iterations"`
	// CPUSeconds is process user+system time over the timed iterations.
	CPUSeconds float64 `json:"cpu_seconds"`
	// PeakRSSKB is the resident-set high-water mark less the probe's buffers.
	PeakRSSKB  int64 `json:"peak_rss_kb"`
	GoMaxProcs int   `json:"gomaxprocs"`
	// Variants holds the outcome per scenario seed, indexed by variant.
	Variants [variants]*variantOutcome `json:"variants"`

	Trace *traceReport `json:"trace,omitempty"`
}

// childArgs is the command line of a child process.
type childArgs struct {
	workload string
	seed     uint64
	quick    bool
	iters    int           // timed iterations; 0 = run for seconds
	seconds  time.Duration // timed span when iters == 0
	traced   bool
	foldOut  string // traced: where the folded profile goes
	t0       int64  // parent's clock just before it started this process
}

func (a childArgs) argv() []string {
	v := []string{"child",
		"-workload", a.workload,
		"-seed", strconv.FormatUint(a.seed, 10),
		"-iters", strconv.Itoa(a.iters),
		"-seconds", a.seconds.String(),
		"-t0", strconv.FormatInt(a.t0, 10),
	}
	if a.quick {
		v = append(v, "-quick")
	}
	if a.traced {
		v = append(v, "-traced", "-fold-out", a.foldOut)
	}
	return v
}

func childMain(argv []string) error {
	var a childArgs
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.StringVar(&a.workload, "workload", "", "workload name")
	fs.Uint64Var(&a.seed, "seed", 42, "run seed")
	fs.BoolVar(&a.quick, "quick", false, "smoke-test sizes")
	fs.IntVar(&a.iters, "iters", 0, "timed iterations (0 = run for -seconds)")
	fs.DurationVar(&a.seconds, "seconds", 0, "timed span when -iters is 0")
	fs.BoolVar(&a.traced, "traced", false, "traced run: telemetry, CPU profile, runtime/metrics")
	fs.StringVar(&a.foldOut, "fold-out", "", "traced: folded profile file")
	fs.Int64Var(&a.t0, "t0", 0, "parent clock at process start, Unix ns")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	w := findWorkload(a.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	if a.t0 == 0 {
		a.t0 = time.Now().UnixNano()
	}
	// Fleet workloads run 2 workers; nothing in a child needs a third thread.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	r := &runner{w: w, a: a, rep: &childReport{Workload: w.name, GoMaxProcs: procs}}
	began := time.Now()
	var err error
	if r.probe, err = newSpeedProbe(procs); err != nil {
		return err
	}
	r.probeBuilt = time.Since(began)
	if a.traced {
		err = r.runTraced()
	} else {
		err = r.runTimed()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	r.rep.PeakRSSKB = rusage().Maxrss - r.probe.residentKB()
	return json.NewEncoder(os.Stdout).Encode(r.rep)
}

// runner is one child process's state: the workload it runs, its arguments,
// the report it fills in and the machine-speed probe.
type runner struct {
	w     *workload
	a     childArgs
	rep   *childReport
	probe *speedProbe
	// probeBuilt is how long mapping and touching the probe's buffers took;
	// set-up time excludes it.
	probeBuilt time.Duration
}

// iterate runs iteration i (on scenario seed i mod variants) and checks its
// digest against every earlier iteration on that seed: the output check that
// holds the simulation deterministic and observers invisible.
func (r *runner) iterate(i int, tel telemetryMode, sp *spanLog, parent int) (time.Duration, error) {
	t := tel.attach()
	seed := variantSeed(r.a.seed, i)
	start := time.Now()
	out, err := r.w.run(seed, r.a.quick, t, sp, parent)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	tel.collect(t)
	v := i % variants
	if prev := r.rep.Variants[v]; prev == nil {
		r.rep.Variants[v] = &variantOutcome{Digest: out.digest, Sim: out.sim, Counts: out.counts}
	} else if out.digest != prev.Digest {
		return 0, fmt.Errorf("seed %d: result digest %s differs from an earlier iteration's %s: the run is not deterministic, or an observer changed it",
			seed, out.digest, prev.Digest)
	}
	return wall, nil
}

// warmUp runs the untimed iterations and records set-up time.
func (r *runner) warmUp() error {
	for i := 0; i < warmups; i++ {
		if _, err := r.iterate(i, telemetryMode{}, nil, 0); err != nil {
			return err
		}
	}
	r.rep.SetupS = float64(time.Now().UnixNano()-r.a.t0)/1e9 - r.probeBuilt.Seconds()
	return nil
}

// timedLoop runs iters iterations or, when iters is 0, iterations until span
// has passed and every scenario seed has had its turn.
func (r *runner) timedLoop(iters int, span time.Duration, tel telemetryMode, sp *spanLog, parent int) ([]iteration, error) {
	var its []iteration
	begin := time.Now()
	for i := 0; ; i++ {
		if iters > 0 && i >= iters {
			break
		}
		if iters == 0 && i >= variants && time.Since(begin) >= span {
			break
		}
		speed := r.probe.measure().Seconds()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := sp.begin("iteration", parent)
		wall, err := r.iterate(i, tel, sp, id)
		sp.end(id)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		its = append(its, iteration{
			Variant:    i % variants,
			WallS:      wall.Seconds(),
			ProbeS:     speed,
			AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
			Mallocs:    m1.Mallocs - m0.Mallocs,
		})
	}
	return its, nil
}

func (r *runner) runTimed() error {
	if err := r.warmUp(); err != nil {
		return err
	}
	cpu0 := processCPU()
	its, err := r.timedLoop(r.a.iters, r.a.seconds, telemetryMode{}, nil, 0)
	if err != nil {
		return err
	}
	r.rep.CPUSeconds = processCPU() - cpu0
	r.rep.Iterations = its
	return nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPU returns the user+system CPU seconds this process has used.
func processCPU() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
