package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// provenance says where and how a result file was produced, so two files
// can be told apart before their numbers are compared.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Revision and Modified come from the build's VCS stamp; "unknown" when
	// the binary was built outside a repository (or with `go run`).
	Revision string `json:"vcs.revision"`
	Modified bool   `json:"vcs.modified"`
	Seed     uint64 `json:"seed"`
	Quick    bool   `json:"quick"`
	Passes   int    `json:"passes"`
	Warmups  int    `json:"warmup_iterations"`
	Variants int    `json:"seeds_per_run"`
	// Iterations is the timed iteration count asked of each workload.
	Iterations map[string]int `json:"iterations"`
	Started    string         `json:"started"`
	TotalS     float64        `json:"total_s"`
}

func collectProvenance(cfg runConfig, total time.Duration) provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: min(2, runtime.NumCPU()),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Revision:   "unknown",
		Seed:       cfg.seed,
		Quick:      cfg.quick,
		Passes:     cfg.passes,
		Warmups:    warmups,
		Variants:   variants,
		Iterations: map[string]int{},
		Started:    time.Now().Add(-total).UTC().Format(time.RFC3339),
		TotalS:     total.Seconds(),
	}
	for _, w := range cfg.workloads {
		p.Iterations[w.name] = w.iters
		if cfg.quick {
			p.Iterations[w.name] = variants * cfg.passes
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// cpuModel reads the processor's name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
