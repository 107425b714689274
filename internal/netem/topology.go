package netem

import (
	"fmt"
	"time"

	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// Network bundles a simulator, hosts and paths into one experiment topology.
// Topologies may contain any number of hosts; the classic two-host
// client/server experiments are the special case built by Build.
type Network struct {
	Sim *sim.Simulator
	// Client and Server alias the hosts named "client" and "server" (the
	// names Build assigns; nil otherwise); the multi-host API is
	// Hosts/Host.
	Client *Host
	Server *Host
	// Hosts lists every host in declaration order.
	Hosts []*Host
	Paths []*Path

	// hostByName indexes Hosts by name.
	hostByName map[string]int
}

// PathSpec describes one bidirectional path between the client and the
// server in a topology built with Build.
type PathSpec struct {
	Name string
	// Config describes the two directions; if BA is the zero value, the AB
	// configuration is mirrored.
	Config PathConfig
}

// Symmetric creates a PathSpec with identical directions.
func Symmetric(name string, rateBps int64, delay time.Duration, queueBytes int, loss float64) PathSpec {
	return PathSpec{Name: name, Config: SymmetricPath(rateBps, delay, queueBytes, loss)}
}

// LinkSpec describes one bidirectional path between two named hosts in a
// GraphSpec topology.
type LinkSpec struct {
	// Name labels the path in traces; defaults to "path<i>".
	Name string
	// A and B name the two endpoint hosts. Traffic from A to B uses
	// Config.AB, the reverse direction Config.BA (mirrored from AB when
	// zero).
	A, B string
	// Config describes the two directions.
	Config PathConfig
	// Boxes is the middlebox chain installed on the path (applied in order
	// for A-to-B traffic).
	Boxes []Box
	// SharedAB and SharedBA name the shared capacity resource each direction
	// transits (empty = dedicated capacity). A link tagged with a shared
	// resource keeps its own rate as a ceiling, but the capacity layer
	// (internal/capacity) may cap the direction further so that all tagged
	// directions — across every shard of a fleet run — jointly respect the
	// named resource's rate. The tag is pure metadata to netem; BuildGraph
	// ignores it.
	SharedAB, SharedBA string
}

// GraphSpec declares a multi-host topology: named hosts connected by
// point-to-point links. It is the input to BuildGraph.
type GraphSpec struct {
	// Hosts lists the host names in declaration order.
	Hosts []string
	// Links lists the point-to-point paths between hosts.
	Links []LinkSpec

	// hostSet indexes Hosts for AddHost's duplicate check (lazily built, and
	// seeded from a literal-initialized Hosts slice on first use, sized for
	// its capacity), keeping programmatic construction of thousand-host
	// graphs linear.
	hostSet map[string]bool
}

// AddHost declares a host in the spec (idempotent: a name already declared is
// not duplicated) and returns the spec for chaining. Programmatic topology
// generators — the fleet shard builders — use it together with AddLink.
func (g *GraphSpec) AddHost(name string) *GraphSpec {
	if g.hostSet == nil {
		g.hostSet = make(map[string]bool, max(len(g.Hosts)+1, cap(g.Hosts)))
		for _, h := range g.Hosts {
			g.hostSet[h] = true
		}
	}
	if !g.hostSet[name] {
		g.hostSet[name] = true
		g.Hosts = append(g.Hosts, name)
	}
	return g
}

// AddLink appends a link (declaring its endpoint hosts if needed) and returns
// the link's index, which determines its 10.x.y.0/24 subnet.
func (g *GraphSpec) AddLink(l LinkSpec) int {
	g.AddHost(l.A).AddHost(l.B)
	g.Links = append(g.Links, l)
	return len(g.Links) - 1
}

// linkAddrs returns the interface addresses for the i-th link: the A side
// gets 10.hi.lo.1 and the B side 10.hi.lo.2, so two-host topologies keep the
// historical 10.0.i.{1,2} layout while graphs may hold up to 2^16 links.
func linkAddrs(i int) (a, b packet.Addr) {
	hi, lo := byte(i>>8), byte(i)
	return packet.MakeAddr(10, hi, lo, 1), packet.MakeAddr(10, hi, lo, 2)
}

// BuildGraph constructs a multi-host topology from the spec: one Host per
// declared name and one Path (with a fresh interface on both endpoint hosts)
// per link. Link i uses the 10.x.y.0/24 subnet derived from its index, A side
// .1 and B side .2.
//
// The graph is built in a handful of allocations, not a few per object: one
// slab each of hosts, interfaces, paths and links, and one array of
// interface pointers that each host's list is carved from, sized by its
// degree.
func BuildGraph(s *sim.Simulator, spec GraphSpec) (*Network, error) {
	if len(spec.Links) > 1<<16 {
		return nil, fmt.Errorf("netem: %d links exceed the addressing plan's 2^16 limit", len(spec.Links))
	}
	n := &Network{Sim: s, hostByName: make(map[string]int, len(spec.Hosts))}
	for i, name := range spec.Hosts {
		if name == "" {
			return nil, fmt.Errorf("netem: empty host name")
		}
		if _, dup := n.hostByName[name]; dup {
			return nil, fmt.Errorf("netem: duplicate host %q", name)
		}
		n.hostByName[name] = i
	}
	// A host's degree is the number of links it ends.
	degree := make([]int, len(spec.Hosts))
	for i, l := range spec.Links {
		a, okA := n.hostByName[l.A]
		b, okB := n.hostByName[l.B]
		if !okA {
			return nil, fmt.Errorf("netem: link %d references unknown host %q", i, l.A)
		}
		if !okB {
			return nil, fmt.Errorf("netem: link %d references unknown host %q", i, l.B)
		}
		if a == b {
			return nil, fmt.Errorf("netem: link %d connects host %q to itself", i, l.A)
		}
		degree[a]++
		degree[b]++
	}
	hosts := make([]Host, len(spec.Hosts))
	n.Hosts = make([]*Host, len(hosts))
	lists := make([]*Interface, 2*len(spec.Links))
	for i, name := range spec.Hosts {
		// The full slice expression caps each list at its host's degree: an
		// interface attached later grows that host's list elsewhere.
		hosts[i].init(s, name, lists[:0:degree[i]])
		lists = lists[degree[i]:]
		n.Hosts[i] = &hosts[i]
	}
	ifaces := make([]Interface, 2*len(spec.Links))
	links := make([]Link, 2*len(spec.Links))
	paths := make([]Path, len(spec.Links))
	n.Paths = make([]*Path, len(paths))
	for i, l := range spec.Links {
		cfg := l.Config
		if cfg.BA == (LinkConfig{}) {
			cfg.BA = cfg.AB
		}
		addrA, addrB := linkAddrs(i)
		ia := hosts[n.hostByName[l.A]].attach(&ifaces[2*i], addrA)
		ib := hosts[n.hostByName[l.B]].attach(&ifaces[2*i+1], addrB)
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("path%d", i)
		}
		p := &paths[i]
		p.init(s, name, ia, ib, cfg, &links[2*i], &links[2*i+1])
		for _, b := range l.Boxes {
			p.AddBox(b)
		}
		n.Paths[i] = p
	}
	// The aliases are bound by name, not position: a graph that declares the
	// server first (or names its hosts differently) must not hand consumers
	// the wrong host through the historical accessors.
	n.Client = n.Host("client")
	n.Server = n.Host("server")
	return n, nil
}

// TwoHostSpec declares the classic two-host topology: a "client" and a
// "server" joined by one path per spec, the client on the A side, so the
// client's i-th interface gets address 10.0.i.1 and the server's 10.0.i.2.
func TwoHostSpec(specs ...PathSpec) GraphSpec {
	g := GraphSpec{Hosts: []string{"client", "server"}}
	for _, spec := range specs {
		g.Links = append(g.Links, LinkSpec{Name: spec.Name, A: "client", B: "server", Config: spec.Config})
	}
	return g
}

// Build constructs the TwoHostSpec topology on s.
func Build(s *sim.Simulator, specs ...PathSpec) *Network {
	n, err := BuildGraph(s, TwoHostSpec(specs...))
	if err != nil {
		// The generated spec is structurally valid by construction.
		panic(err)
	}
	return n
}

// Host returns the host with the given name, or nil.
func (n *Network) Host(name string) *Host {
	if i, ok := n.hostByName[name]; ok {
		return n.Hosts[i]
	}
	return nil
}

// HostNames returns the host names in declaration order.
func (n *Network) HostNames() []string {
	names := make([]string, len(n.Hosts))
	for i, h := range n.Hosts {
		names[i] = h.Name()
	}
	return names
}

// Path returns the i-th path.
func (n *Network) Path(i int) *Path { return n.Paths[i] }

// PathByName returns the path with the given name, or nil.
func (n *Network) PathByName(name string) *Path {
	for _, p := range n.Paths {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// ClientAddr returns the client's address on path i.
func (n *Network) ClientAddr(i int) packet.Addr { return n.Paths[i].A().Addr() }

// ServerAddr returns the server's address on path i.
func (n *Network) ServerAddr(i int) packet.Addr { return n.Paths[i].B().Addr() }

// ---------------------------------------------------------------------------
// Canonical topologies used by the paper's evaluation
// ---------------------------------------------------------------------------

// WiFi3GSpec reproduces the emulated phone scenario of §4.2: an 8 Mbps WiFi
// path with 20 ms base RTT and 80 ms of buffering, and a 2 Mbps 3G path with
// 150 ms base RTT and 2 s of buffering.
func WiFi3GSpec() []PathSpec {
	wifi := LinkConfig{
		RateBps:    Mbps(8),
		Delay:      10 * time.Millisecond, // 20 ms RTT
		QueueBytes: int(float64(Mbps(8)) / 8 * 0.080),
	}
	threeG := LinkConfig{
		RateBps:    Mbps(2),
		Delay:      75 * time.Millisecond, // 150 ms RTT
		QueueBytes: int(float64(Mbps(2)) / 8 * 2.0),
	}
	return []PathSpec{
		{Name: "wifi", Config: PathConfig{AB: wifi, BA: wifi}},
		{Name: "3g", Config: PathConfig{AB: threeG, BA: threeG}},
	}
}

// LossyWiFi3GSpec reproduces Figure 6(a): the same WiFi path plus an
// extremely slow (50 kbps) 3G path whose deep buffer makes retransmissions
// take seconds.
func LossyWiFi3GSpec() []PathSpec {
	wifi := LinkConfig{
		RateBps:    Mbps(8),
		Delay:      10 * time.Millisecond,
		QueueBytes: int(float64(Mbps(8)) / 8 * 0.080),
	}
	slow3G := LinkConfig{
		RateBps:    Kbps(50),
		Delay:      75 * time.Millisecond,
		QueueBytes: int(float64(Kbps(50)) / 8 * 2.0),
		LossRate:   0.02,
	}
	return []PathSpec{
		{Name: "wifi", Config: PathConfig{AB: wifi, BA: wifi}},
		{Name: "slow3g", Config: PathConfig{AB: slow3G, BA: slow3G}},
	}
}

// AsymGigabitSpec reproduces Figure 6(b): one gigabit and one 100 Mbps link
// between two hosts (inter-datacenter transfer with asymmetric links).
func AsymGigabitSpec() []PathSpec {
	return []PathSpec{
		Symmetric("1g", Gbps(1), 250*time.Microsecond, 256<<10, 0),
		Symmetric("100m", Mbps(100), 250*time.Microsecond, 128<<10, 0),
	}
}

// TripleGigabitSpec reproduces Figure 6(c): three symmetric gigabit links.
func TripleGigabitSpec() []PathSpec {
	return []PathSpec{
		Symmetric("1g-a", Gbps(1), 250*time.Microsecond, 256<<10, 0),
		Symmetric("1g-b", Gbps(1), 250*time.Microsecond, 256<<10, 0),
		Symmetric("1g-c", Gbps(1), 250*time.Microsecond, 256<<10, 0),
	}
}

// DualGigabitSpec is the directly connected client/server pair with two
// gigabit links used for the receive-algorithm (Fig. 8) and HTTP (Fig. 11)
// experiments.
func DualGigabitSpec() []PathSpec {
	return []PathSpec{
		Symmetric("1g-a", Gbps(1), 100*time.Microsecond, 512<<10, 0),
		Symmetric("1g-b", Gbps(1), 100*time.Microsecond, 512<<10, 0),
	}
}

// TenGigSpec is the 10 Gbps LAN used by the Figure 3 checksum experiment.
func TenGigSpec() []PathSpec {
	return []PathSpec{
		Symmetric("10g-a", Gbps(10), 50*time.Microsecond, 2<<20, 0),
		Symmetric("10g-b", Gbps(10), 50*time.Microsecond, 2<<20, 0),
	}
}

// Capped3GWiFiSpec reproduces Figure 9: a commercial 3G network with ~2 Mbps
// achievable throughput and a WiFi access point capped at 2 Mbps.
func Capped3GWiFiSpec() []PathSpec {
	wifi := LinkConfig{
		RateBps:    Mbps(2),
		Delay:      10 * time.Millisecond,
		QueueBytes: int(float64(Mbps(2)) / 8 * 0.100),
	}
	threeG := LinkConfig{
		RateBps:    Mbps(2),
		Delay:      75 * time.Millisecond,
		QueueBytes: int(float64(Mbps(2)) / 8 * 2.0),
	}
	return []PathSpec{
		{Name: "wifi", Config: PathConfig{AB: wifi, BA: wifi}},
		{Name: "3g", Config: PathConfig{AB: threeG, BA: threeG}},
	}
}
