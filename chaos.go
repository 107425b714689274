package mptcpgo

import (
	"fmt"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/fleet"
	"mptcpgo/internal/middlebox"
)

// Chaos is the builder for the fleet-chaos scenario: dual-homed clients
// upload byte streams that the server verifies exact-once and in-order while
// a deterministic fault schedule batters the paths and an optional
// adversarial middlebox preset sits on them. A member passes by completing
// with an intact stream — over multipath or after a clean fallback to regular
// TCP — and fails by stalling, corrupting the stream or dying; a per-member
// watchdog converts silent hangs into diagnosed failures.
//
//	res, err := mptcpgo.NewChaos(42).
//		Members(64).
//		Faults("flap500").
//		Adversary("rst").
//		Run()
//
// Results are byte-identical at any worker count for a fixed seed, member
// count and shard count: fault jitter and payload patterns derive from
// (seed, member index) alone.
type Chaos struct {
	spec fleet.ChaosSpec
	err  error
}

// NewChaos starts a chaos scenario with the given root seed: 32 members,
// 384 KiB uploads, no faults, no adversary. Override with the setters.
func NewChaos(seed uint64) *Chaos {
	return &Chaos{spec: fleet.ChaosSpec{Common: fleet.Common{Seed: seed}, Members: 32}}
}

// Members sets the number of dual-homed client hosts.
func (c *Chaos) Members(n int) *Chaos {
	if n <= 0 {
		c.fail(fmt.Errorf("mptcpgo: chaos fleet needs at least one member, got %d", n))
		return c
	}
	c.spec.Members = n
	return c
}

// TransferBytes sets each member's upload size.
func (c *Chaos) TransferBytes(n int) *Chaos { c.spec.TransferBytes = n; return c }

// Faults sets the fault schedule: a preset name ("flap", "flap500", "loss",
// "squeeze", "ifdown", "ifchurn", "none") or the internal/faults grammar,
// e.g. "flap:path=1,period=1s,down=250ms;loss:path=all,rate=0.2,dur=2s".
func (c *Chaos) Faults(spec string) *Chaos {
	sp, err := faults.Parse(spec)
	if err != nil {
		c.fail(err)
		return c
	}
	c.spec.Faults = sp
	return c
}

// Adversary installs an adversarial middlebox preset on every member's
// paths: "none", "strip-syn", "dpi", "dpi-mid", "rst" or "police".
func (c *Chaos) Adversary(name string) *Chaos {
	if _, _, ok := middlebox.AdversaryPreset(name); !ok {
		c.fail(fmt.Errorf("mptcpgo: unknown adversary preset %q (have %v)", name, middlebox.AdversaryPresetNames()))
		return c
	}
	c.spec.Adversary = name
	return c
}

// Deadline caps each shard's simulated time.
func (c *Chaos) Deadline(d time.Duration) *Chaos { c.spec.Deadline = d; return c }

// Shards fixes the shard count (part of the scenario, like Fleet.Shards).
func (c *Chaos) Shards(n int) *Chaos { c.spec.Shards = n; return c }

// Workers bounds parallel shard execution; never changes the merged result.
func (c *Chaos) Workers(n int) *Chaos { c.spec.Workers = n; return c }

// PcapDir captures each shard's wire traffic into the directory.
func (c *Chaos) PcapDir(dir string) *Chaos { c.spec.PcapDir = dir; return c }

// Trace attaches the flight recorder: typed protocol events (and, when
// probeInterval > 0, per-subflow time series at that sim-time cadence) are
// written as fleet-chaos-trace.json and fleet-chaos-events.jsonl into dir.
// Capture never changes the scenario's results.
func (c *Chaos) Trace(dir string, probeInterval time.Duration) *Chaos {
	c.spec.Trace = experiments.TraceSpec{Dir: dir, ProbeInterval: probeInterval}
	return c
}

// Telemetry attaches a metrics plane to the run: live per-shard progress and
// phase profiling flow into it while the fleet executes. Attachment never
// changes the merged result.
func (c *Chaos) Telemetry(t *Telemetry) *Chaos {
	c.spec.Telemetry = planeOf(t)
	return c
}

// Label overrides the result title.
func (c *Chaos) Label(s string) *Chaos { c.spec.Label = s; return c }

func (c *Chaos) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Run executes the chaos scenario and returns the merged result.
func (c *Chaos) Run() (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	return fleet.RunChaos(c.spec)
}
