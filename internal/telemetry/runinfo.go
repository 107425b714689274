package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// RunInfo is the provenance block for one benchmark run: enough to
// re-attribute any BENCH snapshot or trace directory to the exact
// configuration and build that produced it. The config/environment fields
// are stable for a given build+flags; the wall-clock and phase fields are
// machine-dependent and only appear in sidecar files, never in
// deterministic goldens.
type RunInfo struct {
	Name       string            `json:"name"`
	Seed       uint64            `json:"seed"`
	Quick      bool              `json:"quick,omitempty"`
	Args       []string          `json:"args,omitempty"`
	Flags      map[string]string `json:"flags,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	// VCS fields come from debug.ReadBuildInfo; absent under plain `go run`
	// or `go test` builds without VCS stamping.
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`

	// Filled in by Finish.
	WallClockMs float64     `json:"wall_clock_ms,omitempty"`
	Phases      []PhaseStat `json:"phases,omitempty"`
}

// CollectRunInfo captures the configuration and build environment for a run.
func CollectRunInfo(name string, seed uint64, quick bool) *RunInfo {
	ri := &RunInfo{
		Name:       name,
		Seed:       seed,
		Quick:      quick,
		Args:       os.Args[1:],
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				ri.VCSRevision = s.Value
			case "vcs.time":
				ri.VCSTime = s.Value
			case "vcs.modified":
				ri.VCSModified = s.Value == "true"
			}
		}
	}
	return ri
}

// SetFlag records one resolved flag value.
func (ri *RunInfo) SetFlag(name, value string) {
	if ri == nil {
		return
	}
	if ri.Flags == nil {
		ri.Flags = make(map[string]string)
	}
	ri.Flags[name] = value
}

// Finish folds the run's wall clock and phase profile into the provenance
// block.
func (ri *RunInfo) Finish(p *Plane, wall time.Duration) {
	if ri == nil {
		return
	}
	ri.WallClockMs = float64(wall) / float64(time.Millisecond)
	if p == nil {
		return
	}
	ri.Phases = p.Prof.Snapshot()
}

// Config returns a copy with the machine-dependent result fields cleared —
// the portion safe to write next to deterministic trace output.
func (ri *RunInfo) Config() *RunInfo {
	if ri == nil {
		return nil
	}
	c := *ri
	c.WallClockMs = 0
	c.Phases = nil
	return &c
}

// WriteFile writes the provenance block as indented JSON.
func (ri *RunInfo) WriteFile(path string) error {
	if ri == nil {
		return nil
	}
	data, err := json.MarshalIndent(ri, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encode runinfo: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
