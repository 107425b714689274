package mptcpgo

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
)

// LinkConfig describes one direction of a link between two hosts.
type LinkConfig struct {
	// RateMbps is the link rate in megabits per second (0 = unlimited).
	RateMbps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes is the drop-tail buffer in front of the link (0 =
	// unlimited). Deep queues reproduce cellular bufferbloat.
	QueueBytes int
	// LossRate is the random loss probability per packet.
	LossRate float64
}

func (c LinkConfig) toInternal() netem.LinkConfig {
	return netem.LinkConfig{
		RateBps:    int64(c.RateMbps * 1e6),
		Delay:      c.Delay,
		QueueBytes: c.QueueBytes,
		LossRate:   c.LossRate,
	}
}

// Link describes one bidirectional path between two hosts. The two
// directions may be configured independently (asymmetric access links); when
// BtoA is the zero value, AtoB is mirrored.
type Link struct {
	// Name labels the link in traces ("wifi", "3g", ...).
	Name string
	// AtoB configures the direction from the first host named in Connect to
	// the second; BtoA the reverse.
	AtoB LinkConfig
	BtoA LinkConfig
}

// toPathConfig lowers the link's two directions to the internal path
// configuration (BtoA mirrored from AtoB when zero); Topology.Build and the
// Fleet resolver share it.
func (l Link) toPathConfig() netem.PathConfig {
	return netem.PathConfig{AB: l.AtoB.toInternal(), BA: l.BtoA.toInternal()}
}

// SymmetricLink returns a link with identical directions: the given rate,
// one-way delay of rtt/2 and queue size.
func SymmetricLink(name string, rateMbps float64, rtt time.Duration, queueBytes int) Link {
	lc := LinkConfig{RateMbps: rateMbps, Delay: rtt / 2, QueueBytes: queueBytes}
	return Link{Name: name, AtoB: lc, BtoA: lc}
}

// WiFiLink returns the paper's emulated WiFi access link (8 Mbps, 20 ms RTT,
// 80 ms of buffering).
func WiFiLink() Link { return SymmetricLink("wifi", 8, 20*time.Millisecond, 80<<10) }

// ThreeGLink returns the paper's emulated 3G link (2 Mbps, 150 ms RTT, two
// seconds of buffering).
func ThreeGLink() Link { return SymmetricLink("3g", 2, 150*time.Millisecond, 500<<10) }

// GigabitLink returns a 1 Gbps datacenter-style link.
func GigabitLink(name string) Link { return SymmetricLink(name, 1000, 200*time.Microsecond, 512<<10) }

// Box is an on-path middlebox element (NAT, option stripper, resegmenter,
// ...); implementations live in internal/middlebox and are re-exported
// through Internal() topologies or attached with Topology.Connect.
type Box = netem.Box

// Topology declaratively describes an emulated network: named hosts joined
// by point-to-point links with optional middlebox chains. Any number of
// hosts is supported — one client and one server, a 100-client incast, or a
// middlebox gauntlet — and Build turns the description into a runnable
// Network. Methods return the Topology so declarations chain; errors are
// accumulated and reported by Build.
type Topology struct {
	seed    uint64
	hosts   []string
	hostSet map[string]bool
	links   []topoLink
	err     error
}

type topoLink struct {
	a, b  string
	link  Link
	boxes []Box
}

// NewTopology starts an empty topology whose simulation will use the given
// RNG seed.
func NewTopology(seed uint64) *Topology {
	return &Topology{seed: seed, hostSet: make(map[string]bool)}
}

// AddHost declares a host. Hosts referenced by Connect are declared
// implicitly; AddHost exists for hosts that (initially) have no links and to
// pin declaration order.
func (t *Topology) AddHost(name string) *Topology {
	if name == "" {
		t.fail(fmt.Errorf("mptcpgo: empty host name"))
		return t
	}
	if !t.hostSet[name] {
		t.hostSet[name] = true
		t.hosts = append(t.hosts, name)
	}
	return t
}

// Connect joins two hosts with a bidirectional link, optionally threading
// the traffic through a chain of middleboxes (applied in order for a-to-b
// traffic, reverse order for b-to-a). Undeclared host names are added
// implicitly.
func (t *Topology) Connect(a, b string, link Link, boxes ...Box) *Topology {
	t.AddHost(a).AddHost(b)
	if a == b {
		t.fail(fmt.Errorf("mptcpgo: link %q connects host %q to itself", link.Name, a))
		return t
	}
	t.links = append(t.links, topoLink{a: a, b: b, link: link, boxes: boxes})
	return t
}

func (t *Topology) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// Build materialises the topology as an experiments.World: one emulated host
// (with an MPTCP stack) per declared name, one path per link. The i-th link
// uses the 10.x.y.0/24 subnet derived from its index, with the Connect
// first-argument side at .1.
func (t *Topology) Build() (*Network, error) {
	if t.err != nil {
		return nil, t.err
	}
	spec := netem.GraphSpec{Hosts: t.hosts}
	for _, l := range t.links {
		spec.Links = append(spec.Links, netem.LinkSpec{
			Name:   l.link.Name,
			A:      l.a,
			B:      l.b,
			Config: l.link.toPathConfig(),
			Boxes:  l.boxes,
		})
	}
	w, err := experiments.NewWorld(t.seed, spec, "", experiments.TraceSpec{}, "", 0, 0)
	if err != nil {
		return nil, err
	}
	return &Network{w: w}, nil
}

// Network is a built topology: emulated hosts, their MPTCP stacks and the
// paths between them, driven by a deterministic discrete-event clock.
type Network struct {
	w experiments.World
}

// Now returns the current simulated time.
func (n *Network) Now() time.Duration { return n.w.Sim.Now() }

// Run advances the simulation by d.
func (n *Network) Run(d time.Duration) error { return n.RunUntil(n.w.Sim.Now() + d) }

// RunUntil advances the simulation to the absolute time t.
func (n *Network) RunUntil(t time.Duration) error {
	// Nobody is stepping the simulator once this returns, perhaps for good.
	// The world has no capture, so stopping it cannot fail.
	defer n.w.Stop()
	return n.w.Sim.RunUntil(t)
}

// Schedule runs fn after delay d of simulated time.
func (n *Network) Schedule(d time.Duration, fn func()) { n.w.Sim.Schedule(d, fn) }

// Hosts returns the host names in declaration order.
func (n *Network) Hosts() []string { return n.w.Net.HostNames() }

// Manager returns the MPTCP stack of the named host, or nil.
func (n *Network) Manager(host string) *core.Manager { return n.w.Managers[host] }

// Listen installs a listener on the named host's port; accept is invoked for
// every new connection before any data arrives.
func (n *Network) Listen(host string, port uint16, cfg Config, accept func(*Conn)) (*Listener, error) {
	mgr := n.w.Managers[host]
	if mgr == nil {
		return nil, fmt.Errorf("mptcpgo: unknown host %q", host)
	}
	return mgr.Listen(port, cfg, accept)
}

// SetPathDown fails (or restores) the i-th path; segments on a failed path
// are silently dropped, modelling mobility or radio loss.
func (n *Network) SetPathDown(i int, down bool) error {
	if i < 0 || i >= len(n.w.Net.Paths) {
		return fmt.Errorf("mptcpgo: path index %d out of range", i)
	}
	n.w.Net.Path(i).SetDown(down)
	return nil
}

// SetLinkDown fails (or restores) the named link.
func (n *Network) SetLinkDown(name string, down bool) error {
	p := n.w.Net.PathByName(name)
	if p == nil {
		return fmt.Errorf("mptcpgo: unknown link %q", name)
	}
	p.SetDown(down)
	return nil
}

// Internal returns the underlying emulated network for advanced use
// (middlebox chains, link reconfiguration, per-host CPU models).
func (n *Network) Internal() *netem.Network { return n.w.Net }
