package tcp

import (
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// AcceptFunc is invoked for every new passive-open endpoint right after the
// endpoint is created from a SYN but before the SYN/ACK leaves the host, so
// the callback can attach hooks (the MPTCP listener does) and application
// callbacks. The original SYN segment is provided for option inspection.
type AcceptFunc func(ep *Endpoint, syn *packet.Segment)

// Listener accepts incoming connections on one port of a host.
type Listener struct {
	host   *netem.Host
	port   uint16
	cfg    Config
	accept AcceptFunc

	// HooksFactory, when set, builds the hook set for each accepted
	// endpoint before the SYN is processed (MPTCP installs its listener
	// here). It may return nil hooks to accept the connection as plain TCP,
	// or ok=false to refuse the SYN with a RST (e.g. an MP_JOIN with an
	// invalid token).
	HooksFactory func(syn *packet.Segment) (h Hooks, ok bool)
}

// Listen installs a listener on the host.
func Listen(host *netem.Host, port uint16, cfg Config, accept AcceptFunc) (*Listener, error) {
	l := &Listener{host: host, port: port, cfg: cfg.WithDefaults(), accept: accept}
	if err := host.Listen(port, l); err != nil {
		return nil, err
	}
	return l, nil
}

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Close removes the listener (established connections are unaffected).
func (l *Listener) Close() { l.host.Unlisten(l.port) }

// HandleSYN implements netem.ListenHandler.
func (l *Listener) HandleSYN(ingress *netem.Interface, syn *packet.Segment) {
	var hooks Hooks
	if l.HooksFactory != nil {
		h, ok := l.HooksFactory(syn)
		if !ok {
			rst := packet.NewSegment()
			rst.Src, rst.Dst = syn.Dst, syn.Src
			rst.Ack = syn.EndSeq()
			rst.Flags = packet.FlagRST | packet.FlagACK
			ingress.Send(rst)
			return
		}
		hooks = h
	}
	ep, err := accept(ingress, syn, l.cfg, hooks)
	if err != nil {
		return
	}
	if l.accept != nil {
		l.accept(ep, syn)
	}
}
