package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// CDNSpec describes the fleet-cdn scenario: a CDN-egress incast. Every
// client fetches one object at t=0 — a flash crowd — and while each client
// has its own access link, every download direction transits the origin's
// shared egress port. The shards' server replicas model one logical origin,
// so the egress rate is a fleet-global resource: the aggregate download rate
// saturates at the shared rate and the completion-time tail stretches with
// the crowd size, regardless of how the clients are sharded.
type CDNSpec struct {
	// Common.Shared is the egress port every download transits (nil or zero
	// fields = "egress" at 200 Mbps, 100 ms epochs); Common.Deadline defaults
	// to 60 s — a flash crowd that has not drained by then is reported as
	// failed, not hung.
	Common
	// Clients is the flash-crowd size.
	Clients int
	// ObjectSize is the bytes each client fetches (default 1 MB).
	ObjectSize int
}

// cdnAccess is each client's access link: a symmetric 50 Mbps link with 10 ms
// one-way delay and 128 KB of buffering, fast enough that the egress, not the
// access, is the bottleneck. Clients connect with StarConfig over MPTCP.
var cdnAccess = netem.SymmetricPath(netem.Mbps(50), 10*time.Millisecond, 128<<10, 0)

func (s CDNSpec) withDefaults() CDNSpec {
	if s.ObjectSize <= 0 {
		s.ObjectSize = 1 << 20
	}
	egress := capacity.SharedLink{}
	if s.Shared != nil {
		egress = *s.Shared
	}
	if egress.RateBps == 0 {
		egress.RateBps = netem.Mbps(200)
	}
	if egress.Name == "" {
		egress.Name = "egress"
	}
	s.Shared = &egress
	s.Common = s.Common.withDefaults(60 * time.Second)
	return s
}

// cdnScenario is the flash crowd: one single-request pool per client, every
// one dialing at t=0.
type cdnScenario struct{ spec *CDNSpec }

func (s cdnScenario) Setup(sh *Shard) (*httpState, error) {
	spec := s.spec
	conn := StarConfig(core.DefaultConfig())
	return buildStar(&spec.Common, sh,
		func(gi int) (string, netem.PathConfig) { return accessLinkName(gi), cdnAccess },
		func(gi int, mgr *core.Manager, iface *netem.Interface, serverAddr packet.Addr, onDone func()) (*httpsim.ClientPool, error) {
			pool, err := httpsim.NewClientPool(mgr, httpsim.ClientPoolConfig{
				Clients:       1,
				TotalRequests: 1,
				TransferSize:  spec.ObjectSize,
				ServerAddr:    serverAddr,
				ServerPort:    80,
				Conn:          conn,
				Iface:         iface,
				OnDone:        onDone,
			})
			if err == nil {
				// Flash crowd: every client dials at t=0; the shared egress, not
				// a staggered start, decides who finishes when.
				sh.Sim.Schedule(0, pool.Start)
			}
			return pool, err
		})
}

func (cdnScenario) Done(st *httpState) bool { return st.done() }

// Collect reports per-client completion times in client order, plus totals.
func (cdnScenario) Collect(sh *Shard, st *httpState) (burstOut, error) {
	out := burstOut{members: sh.Members(), events: sh.probeEvents()}
	for _, p := range st.pools {
		r := p.Result()
		out.finished += r.Completed
		out.failed += r.Failed
		out.bytes += r.BytesReceived
		out.completions = append(out.completions, p.LatencySamples()...)
	}
	return out, nil
}

// RunCDN executes the fleet-cdn scenario and returns the merged result,
// byte-identical at any worker count for a fixed spec.
func RunCDN(spec CDNSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	title := fmt.Sprintf("CDN flash crowd through shared egress %s (%s)",
		spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps))
	return Run[*httpState, burstOut](spec.Common, "fleet-cdn", title, spec.Clients, cdnScenario{&spec},
		func(res *experiments.Result, outs []burstOut) {
			renderBurst(res, outs,
				fmt.Sprintf("%d clients × %sMB objects across %d shards, shared %s",
					spec.Clients, fmtMB(uint64(spec.ObjectSize)), len(outs), spec.Shared),
				"clients", "goodput",
				fmt.Sprintf("flash crowd: every client dials at t=0 and every download transits shared egress %q — fleet goodput divides total bytes by the slowest completion and saturates at the egress rate", spec.Shared.Name))
		})
}
