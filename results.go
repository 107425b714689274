package mptcpgo

import "mptcpgo/internal/experiments"

// Result is the structured outcome of one paper experiment: tables, numeric
// series and run metadata, with Text, JSON and CSV encoders.
type Result = experiments.Result

// Series is one numeric metric series inside a Result.
type Series = experiments.Series

// ExperimentOption configures an experiment run; see WithQuick, WithSeed and
// WithPaperEraCPU.
type ExperimentOption = experiments.Option

// WithQuick selects the reduced sweep that finishes in seconds.
func WithQuick() ExperimentOption { return experiments.WithQuick() }

// WithSeed sets the base RNG seed; any value, including 0, is used as given.
// Without WithSeed the default seed 42 applies.
func WithSeed(seed uint64) ExperimentOption { return experiments.WithSeed(seed) }

// WithPaperEraCPU swaps this machine's measured per-byte checksum cost for a
// fixed 2012-class figure in the CPU-bound experiments (Figure 3), keeping
// the paper's curve shapes on modern hardware.
func WithPaperEraCPU() ExperimentOption { return experiments.WithPaperEraCPU() }

// ExperimentIDs lists the available paper experiments (fig3..fig11, mbox,
// rationale).
func ExperimentIDs() []string { return experiments.IDs() }

// Run executes one of the paper's experiments and returns its structured
// result.
func Run(id string, opts ...ExperimentOption) (*Result, error) {
	return experiments.Run(id, opts...)
}
