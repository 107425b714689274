// Package capacity couples the otherwise-independent shards of a fleet run
// through named shared bottlenecks: a core link, a CDN egress port, a
// datacenter spine — any resource whose rate all members contend for even
// though each shard simulates its own private network.
//
// The coupling is epoch-based, borrowing the batch-amortization discipline of
// high-rate forwarders: shards exchange capacity once per epoch window, not
// per packet, so the layer costs O(shards) per window rather than O(segments).
// Every shard simulates one epoch of its private topology, reports the bytes
// its tagged link directions offered to each shared resource, and a
// deterministic allocator computes each shard's admitted rate for the next
// window. The rate lands as a link-config swap (the same transform as the
// fault layer's rate squeeze) on the tagged directions at the epoch boundary.
//
// Determinism: an allocation depends only on (epoch index, shard index,
// offered bytes). Offered bytes come from each shard's private deterministic
// simulation; the allocator iterates shards in index order; and the fleet
// engine's epoch barrier orders every Report before the Allocate that reads
// it. Worker-count and wall-clock interleaving therefore never reach the
// arithmetic, preserving the merge discipline of the sharded engine — merged
// results stay byte-identical at any worker count.
package capacity

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// DefaultEpoch is the capacity-exchange window used when a spec does not name
// one: long enough to amortize the barrier, short enough that TCP reacts to a
// reallocation within a few RTTs.
const DefaultEpoch = 100 * time.Millisecond

// DefaultName is the shared-link name assumed by the CLI grammar when the
// spec omits one.
const DefaultName = "core"

// SharedLink declares one shared capacity resource. Link directions tagged
// with its name (netem.LinkSpec.SharedAB/SharedBA) jointly respect RateBps:
// each tagged direction keeps its own configured rate as a ceiling, and the
// allocator caps the set further so admitted rates sum to the shared rate.
type SharedLink struct {
	// Name identifies the resource; tags reference it.
	Name string
	// RateBps is the shared capacity in bits per second.
	RateBps int64
	// Epoch is the capacity-exchange window (0 = DefaultEpoch). Every shared
	// link of one run must use the same epoch; the coupler enforces it.
	Epoch time.Duration
}

// WithDefaults fills in the name and epoch a spec left unset.
func (l SharedLink) WithDefaults() SharedLink {
	if l.Name == "" {
		l.Name = DefaultName
	}
	if l.Epoch <= 0 {
		l.Epoch = DefaultEpoch
	}
	return l
}

// Validate reports whether the spec is runnable.
func (l SharedLink) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("capacity: shared link has no name")
	}
	if strings.ContainsAny(l.Name, ":,; \t") {
		return fmt.Errorf("capacity: shared link name %q contains reserved characters", l.Name)
	}
	if l.RateBps <= 0 {
		return fmt.Errorf("capacity: shared link %q rate %d must be positive", l.Name, l.RateBps)
	}
	if l.Epoch < time.Millisecond {
		return fmt.Errorf("capacity: shared link %q epoch %v is below the 1ms floor", l.Name, l.Epoch)
	}
	return nil
}

// String reserializes the spec in the canonical CLI form name:rate:epoch.
func (l SharedLink) String() string {
	return l.Name + ":" + FormatRate(l.RateBps) + ":" + l.Epoch.String()
}

// ParseSharedLink parses the -shared-link CLI grammar:
//
//	[name:]<rate>[:<epoch>]
//
// where <rate> is a bit-per-second figure with an optional kbps/mbps/gbps
// suffix ("10mbps", "400kbps", "2.5gbps", "800000") and <epoch> is a Go
// duration ("100ms", "1s"; default 100ms). The name defaults to "core". The
// leading token is a name exactly when it does not parse as a rate, so
// "10mbps:250ms", "core:10mbps" and "egress:2gbps:50ms" all work.
func ParseSharedLink(spec string) (SharedLink, error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return SharedLink{}, fmt.Errorf("capacity: spec %q has %d fields, want [name:]rate[:epoch]", spec, len(parts))
	}
	var l SharedLink
	if _, err := ParseRate(parts[0]); err != nil && len(parts) > 1 {
		l.Name = parts[0]
		parts = parts[1:]
	}
	if len(parts) > 2 {
		return SharedLink{}, fmt.Errorf("capacity: spec %q has trailing fields after the epoch", spec)
	}
	rate, err := ParseRate(parts[0])
	if err != nil {
		return SharedLink{}, fmt.Errorf("capacity: spec %q: %w", spec, err)
	}
	l.RateBps = rate
	if len(parts) == 2 {
		d, err := time.ParseDuration(parts[1])
		if err != nil {
			return SharedLink{}, fmt.Errorf("capacity: spec %q: bad epoch %q", spec, parts[1])
		}
		// An explicit epoch must stand on its own: a zero here is a spec
		// error, not a request for the default.
		if d < time.Millisecond {
			return SharedLink{}, fmt.Errorf("capacity: spec %q: epoch %v is below the 1ms floor", spec, d)
		}
		l.Epoch = d
	}
	l = l.WithDefaults()
	if err := l.Validate(); err != nil {
		return SharedLink{}, err
	}
	return l, nil
}

// rateUnits maps the accepted rate suffixes to bits per second. Order
// matters: longer suffixes must match before their substrings.
var rateUnits = []struct {
	suffix string
	scale  float64
}{
	{"gbps", 1e9}, {"mbps", 1e6}, {"kbps", 1e3}, {"bps", 1},
	{"g", 1e9}, {"m", 1e6}, {"k", 1e3},
}

// ParseRate parses a rate figure: a float with an optional (case-insensitive)
// kbps/mbps/gbps suffix or single-letter k/m/g shorthand; a bare number is
// bits per second.
func ParseRate(s string) (int64, error) {
	num, scale := strings.ToLower(strings.TrimSpace(s)), 1.0
	for _, u := range rateUnits {
		if strings.HasSuffix(num, u.suffix) {
			num, scale = num[:len(num)-len(u.suffix)], u.scale
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v <= 0 || v*scale > 1e15 {
		return 0, fmt.Errorf("bad rate %q (want e.g. 10mbps, 400kbps, 2.5gbps or plain bits/s)", s)
	}
	return int64(v * scale), nil
}

// FormatRate renders a bit-per-second figure in the largest exact unit, the
// inverse of ParseRate for canonical reserialization.
func FormatRate(bps int64) string {
	switch {
	case bps >= 1e9 && bps%1e9 == 0:
		return strconv.FormatInt(bps/1e9, 10) + "gbps"
	case bps >= 1e6 && bps%1e6 == 0:
		return strconv.FormatInt(bps/1e6, 10) + "mbps"
	case bps >= 1e3 && bps%1e3 == 0:
		return strconv.FormatInt(bps/1e3, 10) + "kbps"
	}
	return strconv.FormatInt(bps, 10)
}
