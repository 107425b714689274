// Command mptcpbench regenerates the paper's evaluation tables and figures,
// and runs the sharded fleet scenarios that go beyond the paper's scale.
//
// Usage:
//
//	mptcpbench -list
//	mptcpbench -run fig4
//	mptcpbench -run all -quick
//	mptcpbench -run fig3 -quick -format json -out BENCH_fig3.json
//	mptcpbench -scenario list
//	mptcpbench -scenario fleet-http -clients 1000 -workers 8
//	mptcpbench -scenario fleet-openloop -rate 400 -duration 5s -sizedist webmix
//	mptcpbench -scenario fleet-corelink -shared-link core:100mbps:100ms -rate 800
//	mptcpbench -scenario fleet-cdn -clients 256 -shared-link egress:200mbps
//	mptcpbench -scenario incast -quick -format json
//	mptcpbench -scenario fleet-chaos -faults flap500 -adversary rst
//
// Each experiment produces the same rows/series the corresponding figure in
// the paper reports, as aligned text (default), JSON or CSV;
// bench/BENCH_figures.json pins every experiment's quick run, and
// bench/README.md lists the commands behind each committed golden.
//
// The -scenario families run on the internal/fleet sharded engine: the
// workload is partitioned into shards (each shard its own simulator plus
// server replica), shards execute in parallel across -workers goroutines and
// the merged output is byte-identical at any worker count for a fixed -seed
// and -shards.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/fleet"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/telemetry"
	"mptcpgo/internal/workload"
)

// cli holds the parsed command line. set names the flags given explicitly.
type cli struct {
	list                          bool
	run, scenario                 string
	quick                         bool
	seed                          uint64
	format, out                   string
	clients, shards, workers      int
	pcapDir, traceDir             string
	probeInterval                 time.Duration
	rate                          float64
	duration                      time.Duration
	sizeDist, arrival             string
	faults, adversary, sharedLink string
	cpuProfile, memProfile        string
	set                           map[string]string
}

// flagSet declares the command line over c's fields.
func (c *cli) flagSet(onError flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet("mptcpbench", onError)
	fs.BoolVar(&c.list, "list", false, "list available experiments and exit")
	fs.StringVar(&c.run, "run", "", "experiment id to run (or 'all')")
	fs.StringVar(&c.scenario, "scenario", "", "fleet scenario to run ('list' enumerates them)")
	fs.BoolVar(&c.quick, "quick", false, "run a reduced sweep that finishes in seconds")
	fs.Uint64Var(&c.seed, "seed", 42, "base RNG seed (runs are deterministic per seed; 0 is a legal seed)")
	fs.StringVar(&c.format, "format", "text", "output format: text | json | csv")
	fs.StringVar(&c.out, "out", "", "write output to this file instead of stdout")
	fs.IntVar(&c.clients, "clients", 0, "fleet scenario size: clients, senders or pairs (0 = scenario default)")
	fs.IntVar(&c.shards, "shards", 0, "fleet shard count (0 = one shard per 64 members)")
	fs.IntVar(&c.workers, "workers", 0, "parallel shard workers (0 = GOMAXPROCS; never changes the output)")
	fs.StringVar(&c.pcapDir, "pcap-dir", "", "capture wire traffic into this directory: one classic pcap per fleet shard (<scenario>-shard<NNN>.pcap) or per simulated sweep point of a -run experiment (<id>-<NN>.pcap; fig11's bonding points have no path to tap); capture never changes results")
	fs.StringVar(&c.traceDir, "trace-dir", "", "flight recorder: write <scenario>-trace.json and <scenario>-events.jsonl, or per -run sweep point <id>-<NN>-trace.json and -events.jsonl, into this directory (off by default; capture never changes results)")
	fs.DurationVar(&c.probeInterval, "probe-interval", 0, "flight recorder: per-subflow time-series sampling cadence in simulated time (0 = events only; needs -trace-dir)")
	fs.Float64Var(&c.rate, "rate", 0, "fleet-openloop: fleet-wide mean arrival rate in flows/s (0 = scenario default)")
	fs.DurationVar(&c.duration, "duration", 0, "fleet-openloop: arrival window of simulated time (0 = scenario default)")
	fs.StringVar(&c.sizeDist, "sizedist", "webmix", "fleet-openloop: flow-size distribution: fixed:<bytes> | lognormal:<mu>,<sigma> | pareto:<alpha>,<lo>,<hi> | webmix")
	fs.StringVar(&c.arrival, "arrival", "poisson", "fleet-openloop: arrival process: poisson | fixed | onoff[:on_ms,off_ms]")
	fs.StringVar(&c.faults, "faults", "", "fleet-chaos: fault schedule — a preset name ("+strings.Join(faults.PresetNames(), ", ")+") or grammar like 'flap:path=1,period=1s,down=250ms' (see internal/faults)")
	fs.StringVar(&c.adversary, "adversary", "", "fleet-chaos: adversarial middlebox preset: "+strings.Join(middlebox.AdversaryPresetNames(), " | "))
	fs.StringVar(&c.sharedLink, "shared-link", "", "coupled scenarios: the shared bottleneck as [name:]rate[:epoch], e.g. 100mbps, core:1gbps:50ms (fleet-corelink, fleet-cdn, fleet-http)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	return fs
}

// parseCLI parses args (without the program name) and checks the
// combinations that cannot be honoured: a -run or -scenario run given flags
// it does not consume, or a listing given a run or flags, would silently
// produce output for different options than requested.
func parseCLI(args []string, onError flag.ErrorHandling) (*cli, error) {
	c := &cli{set: map[string]string{}}
	fs := c.flagSet(onError)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = f.Value.String() })

	switch c.format {
	case "text", "json", "csv":
	default:
		return nil, fmt.Errorf("unknown output format %q (want text, json or csv)", c.format)
	}
	if c.scenario != "" && c.run != "" {
		return nil, fmt.Errorf("-scenario and -run are mutually exclusive")
	}
	if c.list && c.run != "" {
		return nil, fmt.Errorf("-list and -run are mutually exclusive")
	}
	if c.list && c.scenario != "" {
		return nil, fmt.Errorf("-list and -scenario are mutually exclusive")
	}
	// A listing (-list, -scenario list, or neither -run nor -scenario)
	// consumes no group.
	var accepts flagGroup
	user := "-list"
	switch {
	case c.scenario == "list":
		user = "-scenario list"
	case c.scenario != "":
		def, err := findScenario(c.scenario)
		if err != nil {
			return nil, err
		}
		accepts, user = def.accepts|gSize, "scenario "+def.name
	case c.run != "":
		accepts, user = runAccepts, "-run"
	}
	var unused []string
	for name := range c.set {
		if flagGroups[name]&^accepts != 0 {
			unused = append(unused, "-"+name)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		return nil, fmt.Errorf("%s does not use %s", user, strings.Join(unused, ", "))
	}
	return c, nil
}

func main() {
	c, err := parseCLI(os.Args[1:], flag.ExitOnError)
	if err != nil {
		fail(err)
	}
	stopProfiles, err := startProfiles(c.cpuProfile, c.memProfile)
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	switch {
	case c.scenario == "list":
		listScenarios()
	case c.scenario != "":
		runFleet(c)
	case c.list || c.run == "":
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			e, _ := experiments.Get(id)
			fmt.Printf("  %-10s %s\n", id, e.Title)
		}
		listScenarios()
		if !c.list {
			fmt.Println("\nuse -run <id> (or -run all) to execute one")
		}
	default:
		runExperiments(c)
	}
}

// runInfo starts the provenance record of a run: config now, wall-clock
// results at Finish.
func (c *cli) runInfo(label string) *telemetry.RunInfo {
	info := telemetry.CollectRunInfo(label, c.seed, c.quick)
	for name, value := range c.set {
		info.SetFlag(name, value)
	}
	return info
}

// writeSidecar writes the provenance sidecar next to the encoded -out file:
// config plus the machine-dependent wall-clock and phase summary. Named
// <out-minus-ext>-runinfo.json so BENCH freshness gates (which compare the
// deterministic output file) never see it.
func (c *cli) writeSidecar(info *telemetry.RunInfo) {
	if c.out == "" {
		return
	}
	side := strings.TrimSuffix(c.out, filepath.Ext(c.out)) + "-runinfo.json"
	if err := info.WriteFile(side); err != nil {
		fail(err)
	}
}

// runExperiments executes the -run figure harnesses.
func runExperiments(c *cli) {
	opt := experiments.Options{
		Quick:   c.quick,
		Seed:    c.seed,
		PcapDir: c.pcapDir,
		Trace:   experiments.TraceSpec{Dir: c.traceDir, ProbeInterval: c.probeInterval},
	}
	ids := []string{c.run}
	if strings.EqualFold(c.run, "all") {
		ids = experiments.IDs()
	}
	info := c.runInfo(c.run)
	start := time.Now()
	results := make([]*experiments.Result, 0, len(ids))
	for _, id := range ids {
		t0 := time.Now()
		res, err := experiments.Run(id, opt)
		if err != nil {
			fail(err)
		}
		// As for -scenario, wall-clock goes to stderr and the runinfo sidecar.
		fmt.Fprintf(os.Stderr, "%s: %v wall-clock\n", id, time.Since(t0).Round(time.Millisecond))
		results = append(results, res)
	}
	elapsed := time.Since(start)
	writeResults(c.out, c.format, results)
	info.Finish(nil, elapsed)
	c.writeSidecar(info)
}

// runFleet executes one -scenario run with its observers attached.
func runFleet(c *cli) {
	def, _ := findScenario(c.scenario) // parseCLI already resolved it
	// The telemetry plane rides beside the deterministic core: its phases go
	// into the -out runinfo sidecar, the one artefact that writes them, and attaching it never changes the merged result
	// (TestTelemetryChangesNothing).
	var plane *telemetry.Plane
	if c.out != "" {
		plane = telemetry.New()
	}
	info := c.runInfo(c.scenario)
	o := def.size(c)
	o.Observers = fleet.Observers{
		PcapDir:   c.pcapDir,
		Trace:     experiments.TraceSpec{Dir: c.traceDir, ProbeInterval: c.probeInterval},
		Telemetry: plane,
	}
	if c.traceDir != "" {
		o.Trace.RunInfo = info
	}
	if c.sharedLink != "" {
		l, err := capacity.ParseSharedLink(c.sharedLink)
		if err != nil {
			fail(err)
		}
		o.Shared = &l
	}
	start := time.Now()
	res, err := def.run(o)
	elapsed := time.Since(start)
	if err != nil {
		fail(err)
	}
	// The merged result is byte-comparable across runs and worker counts,
	// so wall-clock goes to stderr rather than into the encoded output.
	fmt.Fprintf(os.Stderr, "%s: %v wall-clock\n", res.ID, elapsed.Round(time.Millisecond))
	encodeSpan := plane.StartSpan("encode")
	writeResults(c.out, c.format, []*experiments.Result{res})
	encodeSpan.End()
	info.Finish(plane, elapsed)
	c.writeSidecar(info)
}

// flagGroup is a set of CLI flags that only some runs consume. Flags in no
// group (-seed, -quick, output and profiling) apply to every run.
type flagGroup uint8

const (
	gPcap   flagGroup = 1 << iota // wire capture
	gTrace                        // the flight recorder
	gShared                       // a shared bottleneck
	gLoad                         // open-loop offered load
	gShape                        // open-loop arrival process and flow sizes
	gChaos                        // fault schedule and adversary
	gSize                         // -clients and sharding: every scenario
)

// runAccepts is what -run consumes: per-point captures and traces.
const runAccepts = gPcap | gTrace

var flagGroups = map[string]flagGroup{
	"pcap-dir":  gPcap,
	"trace-dir": gTrace, "probe-interval": gTrace,
	"shared-link": gShared,
	"rate":        gLoad, "duration": gLoad,
	"sizedist": gShape, "arrival": gShape,
	"faults": gChaos, "adversary": gChaos,
	"clients": gSize, "shards": gSize, "workers": gSize,
}

// sizing is a scenario's scale: what -quick shrinks and what -clients, -rate
// and -duration override. Each scenario reads the fields it has a use for.
type sizing struct {
	members  int           // clients, hosts, senders, pairs or members
	requests int           // fleet-http: closed-loop requests per client
	bytes    int           // response, object or block size
	rate     float64       // open-loop arrivals, flows/s fleet-wide
	window   time.Duration // open-loop arrival window, or the mixed run length
	shared   int64         // default shared-link rate in bit/s (0 = the scenario's own)
}

// scenarioOptions is what a scenario constructor gets: the runner-owned part
// of its spec, its resolved sizing, and the workload flags.
type scenarioOptions struct {
	fleet.Common
	sizing
	sizeDist, arrival string // open-loop scenarios
	faults, adversary string // fleet-chaos
}

// scenarioDef registers one fleet scenario as data: its name, a one-line
// description for '-scenario list', its full and -quick sizing, the flag
// groups it consumes, and the constructor that turns options into a run.
type scenarioDef struct {
	name        string
	describe    string
	full, quick sizing
	accepts     flagGroup
	run         func(o scenarioOptions) (*experiments.Result, error)
}

// scenarios is the ordered registry behind -scenario; flag checking, sizing
// and '-scenario list' all walk it, so a scenario cannot be runnable but
// unlisted, or listed with flags it then ignores. Every scenario also takes
// gSize (-clients, -shards, -workers).
var scenarios = []scenarioDef{
	{"fleet-http", "1000+ closed-loop clients against sharded server replicas (-shared-link couples them)",
		sizing{members: 1000, requests: 2, bytes: 32 << 10}, sizing{members: 64, requests: 1, bytes: 16 << 10},
		gPcap | gTrace | gShared, runHTTPScenario},
	{"fleet-openloop", "open-loop arrivals (-rate/-arrival) with drawn flow sizes (-sizedist)",
		sizing{members: 256, rate: 400, window: 5 * time.Second}, sizing{members: 32, rate: 60, window: 2 * time.Second},
		gPcap | gTrace | gLoad | gShape, runOpenLoopScenario},
	{"fleet-corelink", "open-loop fleet whose downloads jointly transit one shared core link (-shared-link)",
		sizing{members: 256, rate: 400, window: 5 * time.Second, shared: netem.Mbps(100)},
		sizing{members: 32, rate: 60, window: 2 * time.Second, shared: netem.Mbps(10)},
		gPcap | gTrace | gShared | gLoad | gShape, runOpenLoopScenario},
	{"fleet-cdn", "CDN flash crowd: every client fetches one object through a shared origin egress",
		sizing{members: 256, bytes: 1 << 20}, sizing{members: 32, bytes: 256 << 10, shared: netem.Mbps(50)},
		gPcap | gShared, runCDNScenario},
	{"incast", "synchronized many-to-one fan-in over the N-host graph",
		sizing{members: 256, bytes: 256 << 10}, sizing{members: 32, bytes: 128 << 10},
		gPcap, runIncastScenario},
	{"mixed", "MPTCP foreground vs plain-TCP background traffic",
		sizing{members: 32, window: 5 * time.Second}, sizing{members: 8, window: 2 * time.Second},
		gPcap, runMixedScenario},
	{"fleet-chaos", "integrity-checked uploads under fault schedules (-faults) and adversarial middleboxes (-adversary)",
		sizing{members: 32}, sizing{members: 8},
		gPcap | gTrace | gChaos, runChaosScenario},
}

// listScenarios prints the scenario registry, one line per scenario.
func listScenarios() {
	fmt.Println("available fleet scenarios (-scenario):")
	for _, s := range scenarios {
		fmt.Printf("  %-14s %s\n", s.name, s.describe)
	}
}

func findScenario(name string) (*scenarioDef, error) {
	names := make([]string, len(scenarios))
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i], nil
		}
		names[i] = scenarios[i].name
	}
	return nil, fmt.Errorf("unknown scenario %q (want %s, or 'list')", name, strings.Join(names, ", "))
}

// size is the one sizing step: the scenario's full or -quick scale with the
// explicit -clients/-rate/-duration overrides applied, plus the sharding and
// workload flags every constructor passes through.
func (d *scenarioDef) size(c *cli) scenarioOptions {
	s := d.full
	if c.quick {
		s = d.quick
	}
	if c.clients > 0 {
		s.members = c.clients
	}
	if c.rate > 0 {
		s.rate = c.rate
	}
	if c.duration > 0 {
		s.window = c.duration
	}
	o := scenarioOptions{
		Common:   fleet.Common{Seed: c.seed, Shards: c.shards, Workers: c.workers, Quick: c.quick},
		sizing:   s,
		sizeDist: c.sizeDist, arrival: c.arrival,
		faults: c.faults, adversary: c.adversary,
	}
	if s.shared > 0 {
		o.Shared = &capacity.SharedLink{RateBps: s.shared}
	}
	return o
}

func runHTTPScenario(o scenarioOptions) (*experiments.Result, error) {
	spec := fleet.DefaultHTTPSpec(o.Seed, o.members, o.requests, o.bytes)
	spec.Common = o.Common
	return fleet.RunHTTP(spec)
}

// runOpenLoopScenario serves fleet-openloop and fleet-corelink: the same
// workload, coupled exactly when the registry entry or -shared-link names a
// shared link.
func runOpenLoopScenario(o scenarioOptions) (*experiments.Result, error) {
	arrival, err := workload.ParseArrival(o.arrival, o.rate)
	if err != nil {
		return nil, err
	}
	sizes, err := workload.ParseSizeDist(o.sizeDist)
	if err != nil {
		return nil, err
	}
	return fleet.RunOpenLoop(fleet.OpenLoopSpec{
		Common: o.Common, Hosts: o.members, Arrival: arrival, Sizes: sizes, Window: o.window,
	})
}

func runCDNScenario(o scenarioOptions) (*experiments.Result, error) {
	return fleet.RunCDN(fleet.CDNSpec{Common: o.Common, Clients: o.members, ObjectSize: o.bytes})
}

func runIncastScenario(o scenarioOptions) (*experiments.Result, error) {
	return fleet.RunIncast(fleet.IncastSpec{Common: o.Common, Senders: o.members, BlockSize: o.bytes})
}

func runMixedScenario(o scenarioOptions) (*experiments.Result, error) {
	return fleet.RunMixed(fleet.MixedSpec{Common: o.Common, Pairs: o.members, Duration: o.window})
}

func runChaosScenario(o scenarioOptions) (*experiments.Result, error) {
	spec, err := faults.Parse(o.faults)
	if err != nil {
		return nil, err
	}
	return fleet.RunChaos(fleet.ChaosSpec{Common: o.Common, Members: o.members, Faults: spec, Adversary: o.adversary})
}

// writeResults encodes results to the -out file or stdout.
func writeResults(out, format string, results []*experiments.Result) {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := experiments.WriteResults(w, format, results); err != nil {
		fail(err)
	}
}

// startProfiles arms the -cpuprofile/-memprofile collectors and returns the
// function that finalizes both; main defers it so any run (experiment or
// fleet scenario) can be profiled without code edits. Error exits skip the
// finalizer, which only loses the profile of a failed run.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
