package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// metricValue is one reported number. wall_s carries the sample count and the
// quartiles of the raw iteration times; host metrics carry one value per
// pass, whose spread is the run's own measure of how well it repeats.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Raw is a host timing before it was scaled to the probe's speed.
	Raw    float64   `json:"raw,omitempty"`
	N      int       `json:"n,omitempty"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Passes []float64 `json:"passes,omitempty"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Why        string                 `json:"why"`
	Loop       string                 `json:"loop"`
	Digest     string                 `json:"result_digest"`
	Passes     int                    `json:"passes"`
	Iterations int                    `json:"timed_iterations"`
	TimedS     float64                `json:"timed_s"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
}

// perfFile is what `run -out` writes and `compare` reads.
type perfFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// spawn runs one child process to completion and decodes its report. The
// child inherits stderr, so a failed output check is printed as it happens.
func spawn(a childArgs) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	a.t0 = time.Now().UnixNano()
	cmd := exec.Command(exe, a.argv()...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", a.workload, err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return nil, fmt.Errorf("child %s: bad report: %w", a.workload, err)
	}
	return &rep, nil
}

// perVariant reduces iterations to one number: the median per scenario seed,
// then the mean over the seeds, so no seed counts twice because the clock
// stopped mid-cycle. It returns NaN when a seed has no iteration.
func perVariant(its []iteration, f func(iteration) float64) float64 {
	var byVariant [variants][]float64
	for _, it := range its {
		byVariant[it.Variant] = append(byVariant[it.Variant], f(it))
	}
	sum := 0.0
	for _, vs := range byVariant {
		sum += median(vs)
	}
	return sum / variants
}

// passProbe is the median probe time over a pass's timed iterations: the
// machine's speed in the seconds after the pass's set-up.
func passProbe(p *childReport) float64 {
	samples := make([]float64, len(p.Iterations))
	for i, it := range p.Iterations {
		samples[i] = it.ProbeS
	}
	return median(samples)
}

// variantMean averages a sim-time metric or count over the scenario seeds;
// ok is false when a seed does not carry it.
func variantMean(rep *childReport, pick func(*variantOutcome) map[string]float64, name string) (mean float64, ok bool) {
	for _, v := range rep.Variants {
		if v == nil {
			return 0, false
		}
		x, has := pick(v)[name]
		if !has {
			return 0, false
		}
		mean += x / variants
	}
	return mean, true
}

func simOf(v *variantOutcome) map[string]float64    { return v.Sim }
func countsOf(v *variantOutcome) map[string]float64 { return v.Counts }

// runDigest folds the per-seed digests of a report into one.
func runDigest(rep *childReport) string {
	h := sha256.New()
	for _, v := range rep.Variants {
		if v != nil {
			io.WriteString(h, v.Digest)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// endToEnd reduces the untraced passes of one workload to its end-to-end
// metrics. Every pass must have simulated the same thing.
func endToEnd(passes []*childReport) (map[string]metricValue, error) {
	first := passes[0]
	for _, p := range passes[1:] {
		if runDigest(p) != runDigest(first) {
			return nil, fmt.Errorf("%s: passes disagree on the result digest (%s, %s)", first.Workload, runDigest(first), runDigest(p))
		}
	}
	var all []iteration
	for _, p := range passes {
		all = append(all, p.Iterations...)
	}
	walls := make([]float64, len(all))
	for i, it := range all {
		walls[i] = it.WallS
	}

	// Host timings are scaled to the machine speed the probe saw (probe.go);
	// the figure as the clock read it is kept beside it as Raw.
	perIteration := map[string]func(iteration) float64{
		"wall_s":   func(it iteration) float64 { return it.WallS * probeRefS / it.ProbeS },
		"alloc_mb": func(it iteration) float64 { return float64(it.AllocBytes) / 1e6 },
		"allocs_k": func(it iteration) float64 { return float64(it.Mallocs) / 1e3 },
	}
	perPass := map[string]func(*childReport) float64{
		"setup_s":     func(p *childReport) float64 { return p.SetupS * probeRefS / passProbe(p) },
		"peak_rss_mb": func(p *childReport) float64 { return float64(p.PeakRSSKB) / 1024 },
	}
	out := map[string]metricValue{}
	for _, m := range endToEndMetrics {
		mv := metricValue{Unit: m.unit}
		if f := perIteration[m.name]; f != nil {
			for _, p := range passes {
				mv.Passes = append(mv.Passes, perVariant(p.Iterations, f))
			}
			// Pool every pass before taking medians: more samples per seed.
			mv.Value = perVariant(all, f)
		} else if f := perPass[m.name]; f != nil {
			for _, p := range passes {
				mv.Passes = append(mv.Passes, f(p))
			}
			mv.Value = median(mv.Passes)
		} else if v, ok := variantMean(first, simOf, m.name); ok {
			mv.Value = v
		} else {
			continue // the scenario's result does not carry this metric
		}
		if m.name == "setup_s" {
			raw := make([]float64, len(passes))
			for i, p := range passes {
				raw[i] = p.SetupS
			}
			mv.Raw = median(raw)
		}
		if m.name == "wall_s" {
			mv.Raw = perVariant(all, func(it iteration) float64 { return it.WallS })
			mv.N, mv.Q1, mv.Q3 = len(walls), quantile(walls, 0.25), quantile(walls, 0.75)
		}
		if m.name == "sim_p50_ms" || m.name == "sim_p99_ms" {
			if done, ok := variantMean(first, countsOf, "flows.done"); ok {
				mv.N = int(done)
			}
		}
		out[m.name] = mv
	}
	return out, nil
}

// perLayer assembles the per-layer metrics of one workload from the driver
// results and the workload's traced run. wallS is the untraced, unscaled
// wall_s the per-event and per-segment costs are taken against; 0 means use
// the traced run's own plain iterations.
func perLayer(drv map[string]float64, rep *childReport, wallS float64) map[string]metricValue {
	tr := rep.Trace
	if wallS == 0 {
		wallS = median(tr.PlainWallS)
	}
	vals := map[string]float64{}
	for k, v := range drv {
		vals[k] = v
	}
	count := func(name string) (float64, bool) { return variantMean(rep, countsOf, name) }
	iters := float64(len(rep.Iterations))
	profiledWall := 0.0
	for _, it := range rep.Iterations {
		profiledWall += it.WallS
	}
	fleet := tr.Counters["fleet_events_total"] > 0 // the workload fed the facade Telemetry

	for _, l := range profiledLayers {
		vals[l+".cpu_share"] = tr.Profile.Layer[l]
	}
	vals["runtime.gc_share"] = tr.Profile.Runtime["gc"]
	vals["runtime.alloc_share"] = tr.Profile.Runtime["alloc"]
	vals["runtime.copy_share"] = tr.Profile.Runtime["copy"]
	vals["runtime.gc_cycles"] = float64(tr.GCCycles) / iters
	if gets := float64(tr.PoolGets + tr.PoolMisses); gets > 0 {
		vals["pool.miss_share"] = float64(tr.PoolMisses) / gets
	}
	vals["fleet.worker_utilisation"] = tr.CPUSeconds / (profiledWall * float64(rep.GoMaxProcs))

	if events, ok := count("sim.events"); ok {
		vals["sim.events"] = events
		vals["sim.ns_per_event"] = wallS * 1e9 / events
	}
	segments, ok := count("netem.segments")
	if !ok && fleet {
		segments, ok = tr.Counters["fleet_segments_total"]/iters, true
	}
	if ok && segments > 0 {
		vals["netem.segments"] = segments
		vals["netem.ns_per_segment"] = wallS * 1e9 / segments
		if drops, ok := count("netem.queue_drops"); ok {
			vals["netem.queue_drop_share"] = drops / (segments + drops)
		}
	}
	if sent, ok := count("tcp.segments_sent"); ok && sent > 0 {
		rtx, _ := count("tcp.retransmissions")
		vals["tcp.retransmit_share"] = rtx / sent
		vals["tcp.timeouts"], _ = count("tcp.timeouts")
	}
	if rx, ok := count("tcp.segments_received"); ok && rx > 0 {
		steps, _ := count("buffer.ofo_steps")
		vals["buffer.ofo_steps_per_seg"] = steps / rx
	}
	for _, name := range []string{"core.reinjections", "core.conn_rtx", "core.fallbacks", "faults.flaps"} {
		if v, ok := count(name); ok {
			vals[name] = v
		}
	}
	if fleet {
		vals["capacity.allocate_share"] = tr.Phases["allocate"] / profiledWall
		vals["fleet.epoch_barrier_share"] = tr.Phases["epoch-barrier"] / profiledWall
		vals["fleet.shard_step_share"] = tr.Phases["shard-step"] / profiledWall
		if plain := median(tr.PlainWallS); plain > 0 {
			vals["telemetry.overhead_share"] = (median(tr.TelemetryWallS) - plain) / plain
		}
	}

	out := map[string]metricValue{}
	for _, m := range layerMetrics {
		if v, ok := vals[m.name]; ok {
			out[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	return out
}

// runConfig is one invocation of the harness.
type runConfig struct {
	seed      uint64
	quick     bool
	workloads []*workload
	passes    int
	// seconds is the timed span per workload; 0 runs each workload's fixed
	// iteration count instead.
	seconds time.Duration
	timed   bool // make the untraced passes (end-to-end metrics)
	traced  bool // run the drivers and the traced run (per-layer metrics)
	// artefacts is where folded profiles and spans.json go ("" = nowhere).
	artefacts string
}

// execute runs what cfg asks for and returns one result per workload.
func execute(cfg runConfig) (map[string]*workloadResult, error) {
	sp := &spanLog{}
	results := map[string]*workloadResult{}
	roots := map[string]int{}
	for _, w := range cfg.workloads {
		results[w.name] = &workloadResult{Why: w.why, Loop: w.loop}
		roots[w.name] = sp.begin("workload "+w.name, 0)
	}
	if cfg.timed {
		if err := timedPasses(cfg, results, sp, roots); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		if err := tracedRuns(cfg, results, sp, roots); err != nil {
			return nil, err
		}
	}
	for _, id := range roots {
		sp.end(id)
	}
	if cfg.artefacts != "" {
		if err := writeJSON(filepath.Join(cfg.artefacts, "spans.json"), sp.spans); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// timedPasses makes the untraced passes and fills in the end-to-end metrics.
// The pass loop is outermost (A B C D A B C D), so a slow minute on a shared
// box is spread over every workload.
func timedPasses(cfg runConfig, results map[string]*workloadResult, sp *spanLog, roots map[string]int) error {
	reports := map[string][]*childReport{}
	for pass := 0; pass < cfg.passes; pass++ {
		for _, w := range cfg.workloads {
			a := childArgs{workload: w.name, seed: cfg.seed, quick: cfg.quick, seconds: cfg.seconds / time.Duration(cfg.passes)}
			if cfg.seconds == 0 {
				a.iters = w.iters / cfg.passes
				if cfg.quick {
					a.iters = variants
				}
			}
			id := sp.begin(fmt.Sprintf("pass %d", pass), roots[w.name])
			rep, err := spawn(a)
			sp.end(id)
			if err != nil {
				return err
			}
			reports[w.name] = append(reports[w.name], rep)
		}
	}
	for _, w := range cfg.workloads {
		r := results[w.name]
		e2e, err := endToEnd(reports[w.name])
		if err != nil {
			return err
		}
		r.EndToEnd = e2e
		r.Digest = runDigest(reports[w.name][0])
		r.Passes = cfg.passes
		for _, p := range reports[w.name] {
			r.Iterations += len(p.Iterations)
			for _, it := range p.Iterations {
				r.TimedS += it.WallS
			}
		}
	}
	return nil
}

// tracedRuns runs the layer drivers and each workload's traced run and fills
// in the per-layer metrics.
func tracedRuns(cfg runConfig, results map[string]*workloadResult, sp *spanLog, roots map[string]int) error {
	drv, err := runDrivers(cfg.quick, sp)
	if err != nil {
		return err
	}
	for _, w := range cfg.workloads {
		a := childArgs{workload: w.name, seed: cfg.seed, quick: cfg.quick, traced: true, seconds: cfg.seconds}
		if cfg.seconds == 0 {
			a.iters = tracedIters
			if cfg.quick {
				a.iters = variants
			}
		}
		if cfg.artefacts != "" {
			a.foldOut = filepath.Join(cfg.artefacts, "profile-"+w.name+".folded")
		}
		id := sp.begin("traced run", roots[w.name])
		rep, err := spawn(a)
		sp.end(id)
		if err != nil {
			return err
		}
		sp.adopt(rep.Trace.Spans, id)
		if known := 1 - rep.Trace.Profile.Unknown; known < 0.95 {
			return fmt.Errorf("%s: the profile folder attributes only %.1f%% of samples to a known bucket", w.name, 100*known)
		}
		r := results[w.name]
		if r.Digest == "" {
			r.Digest, r.Iterations = runDigest(rep), len(rep.Iterations)
		} else if d := runDigest(rep); d != r.Digest {
			return fmt.Errorf("%s: traced run's result digest %s differs from the untraced passes' %s: an observer changed the result", w.name, d, r.Digest)
		}
		r.PerLayer = perLayer(drv, rep, r.EndToEnd["wall_s"].Raw)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// allWorkloads returns the four workloads in table order.
func allWorkloads() []*workload {
	all := make([]*workload, len(workloads))
	for i := range workloads {
		all[i] = &workloads[i]
	}
	return all
}

// runMain is the full run: two untraced passes over the workloads, the layer
// drivers, the traced run; every metric printed by name and written to -out.
func runMain(argv []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "run seed; scenario seeds derive from it")
	quick := fs.Bool("quick", false, "smoke test: sizes and iterations cut ~20x, never for reported numbers")
	out := fs.String("out", "", "write the results as JSON to this file; folded profiles and spans.json go beside it")
	ledger := fs.String("ledger", "", "append the end-to-end block as one JSON line to this file")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, quick: *quick, workloads: allWorkloads(), passes: 2, timed: true, traced: true}
	if *out != "" {
		cfg.artefacts = filepath.Dir(*out)
		if err := os.MkdirAll(cfg.artefacts, 0o755); err != nil {
			return err
		}
	}
	start := time.Now()
	results, err := execute(cfg)
	if err != nil {
		return err
	}
	file := perfFile{Provenance: collectProvenance(cfg, time.Since(start)), Workloads: results}
	printResults(os.Stdout, file)
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return err
		}
	}
	if *ledger != "" {
		return appendLedger(*ledger, file)
	}
	return nil
}

// appendLedger appends provenance plus every workload's end-to-end block as
// one JSON line: the append-only performance trajectory.
func appendLedger(path string, file perfFile) (err error) {
	type entry struct {
		Provenance provenance                        `json:"provenance"`
		Digests    map[string]string                 `json:"result_digests"`
		EndToEnd   map[string]map[string]metricValue `json:"end_to_end"`
	}
	e := entry{Provenance: file.Provenance, Digests: map[string]string{}, EndToEnd: map[string]map[string]metricValue{}}
	for name, r := range file.Workloads {
		e.Digests[name] = r.Digest
		e.EndToEnd[name] = r.EndToEnd
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	_, err = f.Write(append(line, '\n'))
	return err
}

// printResults prints every metric by name with its unit.
func printResults(w io.Writer, file perfFile) {
	p := file.Provenance
	fmt.Fprintf(w, "perf: seed %d, %s, %d CPUs (GOMAXPROCS %d), %s, revision %s, %.1f s\n",
		p.Seed, p.CPUModel, p.NumCPU, p.GoMaxProcs, p.GoVersion, p.Revision, p.TotalS)
	for _, wl := range workloads {
		r := file.Workloads[wl.name]
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s (%s loop) result_digest %s: %d timed iterations in %d passes, %.1f s timed\n",
			wl.name, r.Loop, r.Digest, r.Iterations, r.Passes, r.TimedS)
		for _, m := range endToEndMetrics {
			mv, ok := r.EndToEnd[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-26s %14.6g %-8s %-4s %s is better, bound %g%%", m.name, mv.Value, mv.Unit, m.kind, m.better, 100*m.bound)
			if mv.Raw > 0 {
				fmt.Fprintf(w, ", raw %.6g", mv.Raw)
			}
			if mv.N > 0 {
				fmt.Fprintf(w, ", n=%d", mv.N)
			}
			if mv.Q3 > 0 {
				fmt.Fprintf(w, ", quartiles %.4g..%.4g", mv.Q1, mv.Q3)
			}
			if len(mv.Passes) > 1 {
				fmt.Fprintf(w, ", pass spread %.1f%%", 100*spread(mv.Passes))
			}
			fmt.Fprintln(w)
		}
		for _, m := range layerMetrics {
			if mv, ok := r.PerLayer[m.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %-6s (%s)\n", m.name, mv.Value, mv.Unit, m.source)
			}
		}
	}
}

// benchMain is the driver-facing mode: one workload, a timed span, and one
// JSON object as the last line of standard output. --trace 0 reports the
// gated end-to-end metrics, --trace 1 the per-layer metrics.
func benchMain(argv []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 42, "run seed; scenario seeds derive from it")
	seconds := fs.Int("seconds", 20, "timed span in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	cfg := runConfig{
		seed: *seed, workloads: []*workload{w}, passes: benchPasses,
		seconds: time.Duration(*seconds) * time.Second,
		timed:   *trace == 0, traced: *trace != 0,
	}
	results, err := execute(cfg)
	if err != nil {
		return err
	}
	r := results[w.name]
	metrics := benchMetrics(r, cfg.traced)
	// An operation is one timed iteration that passed every output check; a
	// failed check has already ended the run with an error.
	line, err := json.Marshal(map[string]any{"correct": true, "attempted": r.Iterations, "failed": 0, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perf: %s result_digest %s\n", w.name, r.Digest)
	_, err = fmt.Println(string(line))
	return err
}

// benchMetrics picks what the driver-facing mode prints: the gated
// end-to-end metrics of an untraced run, or every per-layer metric of a
// traced one. The driver wants each per-layer metric on every workload, so
// one this workload does not carry reads 0.
func benchMetrics(r *workloadResult, traced bool) map[string]metricValue {
	metrics := map[string]metricValue{}
	if traced {
		for _, m := range layerMetrics {
			metrics[m.name] = metricValue{Value: r.PerLayer[m.name].Value, Unit: m.unit}
		}
		return metrics
	}
	for _, m := range endToEndMetrics {
		if m.gated {
			metrics[m.name] = metricValue{Value: r.EndToEnd[m.name].Value, Unit: m.unit}
		}
	}
	return metrics
}

const (
	// benchPasses is how many child processes a bench run splits its span
	// over: set-up time and peak memory are per process, so more passes
	// steady their medians.
	benchPasses = 5
	// tracedIters is how many iterations each part of a full run's traced
	// run makes: two per scenario seed.
	tracedIters = 2 * variants
)
