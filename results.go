package mptcpgo

import "mptcpgo/internal/experiments"

// Result is the structured outcome of one paper experiment: tables, numeric
// series and run metadata, with Text, JSON and CSV encoders.
type Result = experiments.Result

// Series is one numeric metric series inside a Result.
type Series = experiments.Series

// ExperimentOption configures an experiment run; see WithQuick and WithSeed.
type ExperimentOption func(*experiments.Options)

// WithQuick selects the reduced sweep that finishes in seconds.
func WithQuick() ExperimentOption { return func(o *experiments.Options) { o.Quick = true } }

// WithSeed sets the base RNG seed; any value, including 0, is used as given.
// Without WithSeed the default seed 42 applies.
func WithSeed(seed uint64) ExperimentOption { return func(o *experiments.Options) { o.Seed = seed } }

// ExperimentIDs lists the available paper experiments (fig3..fig11, mbox,
// rationale).
func ExperimentIDs() []string { return experiments.IDs() }

// Run executes one of the paper's experiments and returns its structured
// result.
func Run(id string, opts ...ExperimentOption) (*Result, error) {
	o := experiments.Options{Seed: 42}
	for _, opt := range opts {
		opt(&o)
	}
	return experiments.Run(id, o)
}
