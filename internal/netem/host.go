package netem

import (
	"fmt"
	"time"

	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// SegmentHandler receives segments demultiplexed to one connection or
// subflow. The ingress interface is provided so that responses can be routed
// back the way the segment came (important behind NATs).
type SegmentHandler interface {
	HandleSegment(ingress *Interface, seg *packet.Segment)
}

// ListenHandler receives SYN segments for which no established connection
// exists on the destination port.
type ListenHandler interface {
	HandleSYN(ingress *Interface, seg *packet.Segment)
}

// CPUModel models host packet-processing cost. It reproduces the effect in
// Figure 3: with small segments, per-packet costs (interrupts, protocol
// processing) dominate; software DSS checksumming adds a per-byte cost that
// checksum offload would otherwise hide.
type CPUModel struct {
	// PerPacket is charged for every segment sent or received.
	PerPacket time.Duration
	// PerPayloadByte is charged per payload byte (software checksumming).
	PerPayloadByte time.Duration
}

// Cost returns the processing time for one segment.
func (m CPUModel) Cost(seg *packet.Segment) time.Duration {
	return m.PerPacket + time.Duration(len(seg.Payload))*m.PerPayloadByte
}

// Host is an end system with one or more interfaces and a TCP demultiplexer.
type Host struct {
	sim  *sim.Simulator
	name string

	ifaces []*Interface

	conns     map[packet.FourTuple]SegmentHandler
	listeners map[uint16]ListenHandler

	// lastKey/lastHandler memoize the most recent successful demux. Burst
	// delivery hands a link's back-to-back segments to the host consecutively,
	// so a bulk transfer's segments hit the cache and skip the map lookup.
	// Only positive lookups are cached; Unregister invalidates the entry when
	// it removes the cached tuple.
	lastKey     packet.FourTuple
	lastHandler SegmentHandler

	nextEphemeral uint16

	// CPU, when non-zero, serializes packet processing through a single
	// busy-until model.
	CPU        CPUModel
	cpuBusyTil time.Duration

	// OnUnmatched, if set, overrides the default RST-on-unmatched-segment
	// behaviour (used by probes and tests).
	OnUnmatched func(ingress *Interface, seg *packet.Segment)
}

// Ephemeral ports run from ephemeralLow to 65535; a host's first dial takes
// ephemeralLow+1.
const ephemeralLow = 40000

// NewHost creates a host attached to the simulator.
func NewHost(s *sim.Simulator, name string) *Host {
	h := new(Host)
	h.init(s, name, nil)
	return h
}

// init readies h in place with ifaces as the (empty) start of its interface
// list: BuildGraph builds a graph's hosts in one slab and carves their lists
// from one backing array. The four-tuple map comes from the simulator's
// demuxMaps; the listener map is made by the first Listen, since only
// servers listen.
func (h *Host) init(s *sim.Simulator, name string, ifaces []*Interface) {
	*h = Host{
		sim:           s,
		name:          name,
		ifaces:        ifaces,
		conns:         sim.Local[demuxMaps](s).take(),
		nextEphemeral: ephemeralLow,
	}
}

// demuxMaps are the four-tuple maps of the hosts one simulator runs
// (sim.Local), handed out in host creation order. They outlive their world
// (sim.Retirer): when the simulator closes, Retire clears each map it handed
// out, which keeps the map's capacity, and the hosts of a later simulator
// take them, so a warm world's Register grows no table. Nothing iterates a
// host's map, so which host gets which map cannot change a result.
type demuxMaps struct {
	maps []map[packet.FourTuple]SegmentHandler
	// next is the first map no host of the running simulator has taken.
	next int
}

// take returns the next map, made when none is left.
func (d *demuxMaps) take() map[packet.FourTuple]SegmentHandler {
	if d.next == len(d.maps) {
		d.maps = append(d.maps, make(map[packet.FourTuple]SegmentHandler))
	}
	m := d.maps[d.next]
	d.next++
	return m
}

// Retire empties the maps the closed simulator's hosts took, so none keeps
// a handler of the closed world reachable, and hands them all out again.
func (d *demuxMaps) Retire() {
	for _, m := range d.maps[:d.next] {
		clear(m)
	}
	d.next = 0
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Sim returns the simulator the host runs on.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// AddInterface attaches a new interface with the given address.
func (h *Host) AddInterface(addr packet.Addr) *Interface {
	return h.attach(new(Interface), addr)
}

// attach readies ifc in place as the host's next interface.
func (h *Host) attach(ifc *Interface, addr packet.Addr) *Interface {
	*ifc = Interface{host: h, addr: addr}
	h.ifaces = append(h.ifaces, ifc)
	return ifc
}

// Interfaces returns the host's interfaces in attachment order.
func (h *Host) Interfaces() []*Interface { return h.ifaces }

// InterfaceByAddr returns the interface with the given address, or nil.
func (h *Host) InterfaceByAddr(addr packet.Addr) *Interface {
	for _, ifc := range h.ifaces {
		if ifc.addr == addr {
			return ifc
		}
	}
	return nil
}

// AllocatePort returns an ephemeral port whose four-tuple from local to
// remote no connection (nor a TIME_WAIT record) holds. As Linux's
// inet_hash_connect does, it searches on from the port after the last one
// it returned, wrapping from 65535 to the bottom of the range, and fails only
// when every port of the range is taken toward remote.
func (h *Host) AllocatePort(local packet.Addr, remote packet.Endpoint) (uint16, error) {
	for n := 0; n < 1<<16-ephemeralLow; n++ {
		h.nextEphemeral++
		if h.nextEphemeral < ephemeralLow {
			h.nextEphemeral = ephemeralLow
		}
		key := packet.FourTuple{Src: packet.Endpoint{Addr: local, Port: h.nextEphemeral}, Dst: remote}
		if _, taken := h.conns[key]; !taken {
			return h.nextEphemeral, nil
		}
	}
	return 0, fmt.Errorf("netem: %s: every ephemeral port from %v to %v is taken", h.name, local, remote)
}

// Register installs a handler for the connection identified by the local and
// remote endpoints.
func (h *Host) Register(local, remote packet.Endpoint, handler SegmentHandler) error {
	key := packet.FourTuple{Src: local, Dst: remote}
	if _, exists := h.conns[key]; exists {
		return fmt.Errorf("netem: %s: connection %v already registered", h.name, key)
	}
	h.conns[key] = handler
	return nil
}

// Unregister removes a connection handler.
func (h *Host) Unregister(local, remote packet.Endpoint) {
	key := packet.FourTuple{Src: local, Dst: remote}
	if key == h.lastKey {
		h.lastHandler = nil
	}
	delete(h.conns, key)
}

// Replace hands a registered connection's four-tuple to another handler (an
// endpoint entering TIME_WAIT hands it to the record that answers for it).
// The last-hit cache forgets the old handler.
func (h *Host) Replace(local, remote packet.Endpoint, handler SegmentHandler) {
	key := packet.FourTuple{Src: local, Dst: remote}
	if key == h.lastKey {
		h.lastHandler = nil
	}
	h.conns[key] = handler
}

// Handler returns the handler registered for the connection, or nil.
func (h *Host) Handler(local, remote packet.Endpoint) SegmentHandler {
	return h.conns[packet.FourTuple{Src: local, Dst: remote}]
}

// Listen installs a SYN handler on the given port.
func (h *Host) Listen(port uint16, handler ListenHandler) error {
	if _, exists := h.listeners[port]; exists {
		return fmt.Errorf("netem: %s: port %d already has a listener", h.name, port)
	}
	if h.listeners == nil {
		h.listeners = make(map[uint16]ListenHandler)
	}
	h.listeners[port] = handler
	return nil
}

// Unlisten removes a listener.
func (h *Host) Unlisten(port uint16) { delete(h.listeners, port) }

// deliver demultiplexes a received segment after the CPU model charge.
func (h *Host) deliver(ingress *Interface, seg *packet.Segment) {
	if h.CPU.PerPacket > 0 || h.CPU.PerPayloadByte > 0 {
		cost := h.CPU.Cost(seg)
		start := h.sim.Now()
		if h.cpuBusyTil > start {
			start = h.cpuBusyTil
		}
		done := start + cost
		h.cpuBusyTil = done
		h.sim.ScheduleAt(done, func() { h.dispatch(ingress, seg) })
		return
	}
	h.dispatch(ingress, seg)
}

func (h *Host) dispatch(ingress *Interface, seg *packet.Segment) {
	key := packet.FourTuple{Src: seg.Dst, Dst: seg.Src}
	if h.lastHandler != nil && key == h.lastKey {
		h.lastHandler.HandleSegment(ingress, seg)
		seg.Release()
		return
	}
	if handler, ok := h.conns[key]; ok {
		h.lastKey, h.lastHandler = key, handler
		handler.HandleSegment(ingress, seg)
		// The segment has been fully consumed: handlers copy any payload
		// bytes they keep (receive queues and reassembly buffers own their
		// own pool buffers), so the segment goes back to the pool here.
		seg.Release()
		return
	}
	if seg.Flags.Has(packet.FlagSYN) && !seg.Flags.Has(packet.FlagACK) {
		if l, ok := h.listeners[seg.Dst.Port]; ok {
			l.HandleSYN(ingress, seg)
			seg.Release()
			return
		}
	}
	if h.OnUnmatched != nil {
		// Probes may retain the segment; ownership passes to the callback.
		h.OnUnmatched(ingress, seg)
		return
	}
	// Default behaviour: answer non-RST segments with a RST, as a real host
	// with no matching socket would.
	if !seg.Flags.Has(packet.FlagRST) {
		rst := packet.NewSegment()
		rst.Src, rst.Dst = seg.Dst, seg.Src
		rst.Seq, rst.Ack = seg.Ack, seg.EndSeq()
		rst.Flags = packet.FlagRST | packet.FlagACK
		ingress.Send(rst)
	}
	seg.Release()
}

// chargeTX applies the CPU model to an outgoing segment and invokes send when
// the CPU is free.
func (h *Host) chargeTX(seg *packet.Segment, send func()) {
	if h.CPU.PerPacket == 0 && h.CPU.PerPayloadByte == 0 {
		send()
		return
	}
	cost := h.CPU.Cost(seg)
	start := h.sim.Now()
	if h.cpuBusyTil > start {
		start = h.cpuBusyTil
	}
	done := start + cost
	h.cpuBusyTil = done
	h.sim.ScheduleAt(done, send)
}

// Sender is anything an interface can transmit segments through: a plain
// Link, or an aggregate such as a round-robin bond.
type Sender interface {
	Send(seg *packet.Segment)
}

// Interface is a host network interface attached to (at most) one path.
type Interface struct {
	host *Host
	addr packet.Addr

	// out is the transmit side of the attached path for this interface.
	out Sender
	// path is the bidirectional path the interface is attached to.
	path *Path
}

// Host returns the owning host.
func (i *Interface) Host() *Host { return i.host }

// Addr returns the interface address.
func (i *Interface) Addr() packet.Addr { return i.addr }

// Path returns the path the interface is attached to, or nil.
func (i *Interface) Path() *Path { return i.path }

// Attached reports whether the interface is connected to a path.
func (i *Interface) Attached() bool { return i.out != nil }

// AttachSender connects the interface's transmit side to an arbitrary Sender
// (used by link bonding). Interfaces attached to a Path get their sender set
// automatically.
func (i *Interface) AttachSender(s Sender) { i.out = s }

// Send transmits a segment out of this interface.
func (i *Interface) Send(seg *packet.Segment) {
	if i.out == nil {
		seg.Release()
		return
	}
	h := i.host
	seg.SentAt = h.sim.Now()
	if h.CPU.PerPacket == 0 && h.CPU.PerPayloadByte == 0 {
		// No CPU model: transmit synchronously without allocating the
		// deferred-send closure.
		i.out.Send(seg)
		return
	}
	i.host.chargeTX(seg, func() { i.out.Send(seg) })
}

// Receive implements Receiver; segments arriving from the path are handed to
// the host demultiplexer.
func (i *Interface) Receive(seg *packet.Segment) {
	i.host.deliver(i, seg)
}
