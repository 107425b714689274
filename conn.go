package mptcpgo

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// DialOption customises a Dial call; see WithConfig, WithInterface and
// WithTCPOnly.
type DialOption func(*dialOptions)

type dialOptions struct {
	cfg   Config
	iface int // index into the dialing host's interfaces; -1 = first route
}

// WithConfig selects the connection configuration (default DefaultConfig:
// MPTCP with every paper mechanism enabled).
func WithConfig(cfg Config) DialOption {
	return func(o *dialOptions) { o.cfg = cfg }
}

// WithInterface pins the initial subflow to the dialing host's i-th
// interface (attachment order, as reported by Interfaces on the internal
// host). By default the first interface with a path to the target host is
// used.
func WithInterface(i int) DialOption {
	return func(o *dialOptions) { o.iface = i }
}

// WithTCPOnly is shorthand for WithConfig(TCPConfig()): a single-path TCP
// connection.
func WithTCPOnly() DialOption {
	return func(o *dialOptions) { o.cfg = TCPConfig() }
}

// Dial opens a connection from the named host to target, a "host:port"
// address such as "server:8080". The initial subflow leaves through the
// first interface routed toward the target (override with WithInterface);
// MPTCP then opens additional subflows over the remaining paths between the
// two hosts as usual.
func (n *Network) Dial(host, target string, opts ...DialOption) (*Conn, error) {
	mgr := n.w.Managers[host]
	if mgr == nil {
		return nil, fmt.Errorf("mptcpgo: unknown host %q", host)
	}
	targetName, port, err := splitTarget(target)
	if err != nil {
		return nil, err
	}
	targetHost := n.w.Net.Host(targetName)
	if targetHost == nil {
		return nil, fmt.Errorf("mptcpgo: dial %q: unknown host %q", target, targetName)
	}
	do := applyDialOptions(opts)
	ifc, err := pickInterface(mgr.Host(), targetHost, do.iface)
	if err != nil {
		return nil, err
	}
	remote := ifc.Path().Peer(ifc)
	return mgr.Dial(ifc, packet.Endpoint{Addr: remote.Addr(), Port: port}, do.cfg)
}

// DialStream is Dial followed by NewStream: it returns the connection
// wrapped as an io.ReadWriteCloser whose calls drive the simulation.
func (n *Network) DialStream(host, target string, opts ...DialOption) (*Stream, error) {
	c, err := n.Dial(host, target, opts...)
	if err != nil {
		return nil, err
	}
	return n.NewStream(c), nil
}

func applyDialOptions(opts []DialOption) dialOptions {
	do := dialOptions{cfg: DefaultConfig(), iface: -1}
	for _, opt := range opts {
		opt(&do)
	}
	return do
}

// pickInterface resolves the egress interface for a dial from host toward
// target; index pins a specific interface (WithInterface), negative means
// the first interface with a path to the target.
func pickInterface(host, target *netem.Host, index int) (*netem.Interface, error) {
	ifaces := host.Interfaces()
	if index >= 0 {
		if index >= len(ifaces) {
			return nil, fmt.Errorf("mptcpgo: interface index %d out of range (%d interfaces)", index, len(ifaces))
		}
		ifc := ifaces[index]
		if !reaches(ifc, target) {
			return nil, fmt.Errorf("mptcpgo: interface %d of host %q has no path to host %q", index, host.Name(), target.Name())
		}
		return ifc, nil
	}
	for _, ifc := range ifaces {
		if reaches(ifc, target) {
			return ifc, nil
		}
	}
	return nil, fmt.Errorf("mptcpgo: host %q has no path to host %q", host.Name(), target.Name())
}

// reaches reports whether the interface's path terminates at target.
func reaches(ifc *netem.Interface, target *netem.Host) bool {
	p := ifc.Path()
	if p == nil {
		return false
	}
	peer := p.Peer(ifc)
	return peer != nil && peer.Host() == target
}

// splitTarget parses a "host:port" dial target.
func splitTarget(target string) (host string, port uint16, err error) {
	i := strings.LastIndexByte(target, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("mptcpgo: dial target %q is not host:port", target)
	}
	host = target[:i]
	if host == "" {
		return "", 0, fmt.Errorf("mptcpgo: dial target %q has an empty host", target)
	}
	p, perr := strconv.ParseUint(target[i+1:], 10, 16)
	if perr != nil {
		return "", 0, fmt.Errorf("mptcpgo: dial target %q has an invalid port: %v", target, perr)
	}
	return host, uint16(p), nil
}

// ---------------------------------------------------------------------------
// Stream: standard-library-shaped byte stream over a Conn
// ---------------------------------------------------------------------------

// ErrStreamStalled is returned by Stream operations that cannot make
// progress because the simulation has run out of events: nothing is
// scheduled that could ever deliver (or drain) more bytes.
var ErrStreamStalled = errors.New("mptcpgo: stream stalled: simulation has no pending events")

// Stream wraps a Conn as an io.ReadWriteCloser. The underlying connection
// API is callback-driven and never blocks; Stream recovers the familiar
// blocking semantics by stepping the deterministic simulator until the
// operation can make progress, so ordinary Go code — io.Copy, bufio,
// encoding/json — runs unchanged against emulated connections.
//
// Stream methods drive the simulation and are therefore meant for
// "top-level" use (test bodies, example mains). Inside simulation callbacks
// such as OnReadable, use the non-blocking Conn methods instead.
type Stream struct {
	conn *Conn
	sim  interface{ Step() bool }
}

// Compile-time contract: Stream is a standard byte stream.
var _ io.ReadWriteCloser = (*Stream)(nil)

// NewStream wraps an established (or establishing) connection of this
// network.
func (n *Network) NewStream(c *Conn) *Stream {
	return &Stream{conn: c, sim: n.w.Sim}
}

// Conn returns the wrapped connection.
func (s *Stream) Conn() *Conn { return s.conn }

// Read fills p with the next in-order bytes of the connection's data
// stream, stepping the simulation while no data is available. It returns
// io.EOF once the peer's DATA_FIN (or clean close) has been consumed, and
// the connection's terminal error if it failed.
func (s *Stream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if s.conn.ReadableBytes() > 0 {
			return s.conn.ReadInto(p), nil
		}
		if s.conn.EOF() {
			return 0, io.EOF
		}
		if s.conn.Closed() {
			if err := s.conn.Err(); err != nil {
				return 0, err
			}
			return 0, io.EOF
		}
		if !s.sim.Step() {
			return 0, ErrStreamStalled
		}
	}
}

// Write queues p on the connection, stepping the simulation whenever the
// send buffer is full. It returns a short count only with an error.
func (s *Stream) Write(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		if s.conn.Closed() {
			err := s.conn.Err()
			if err == nil {
				err = io.ErrClosedPipe
			}
			return total, err
		}
		if s.conn.WriteClosed() {
			return total, io.ErrClosedPipe
		}
		n := s.conn.Write(p[total:])
		total += n
		if n == 0 && total < len(p) {
			if !s.sim.Step() {
				return total, ErrStreamStalled
			}
		}
	}
	return total, nil
}

// Close closes the sending direction: a DATA_FIN is queued once all written
// data has been mapped to subflows. It does not drive the simulation; run
// the network (or keep reading) to complete the close handshake.
func (s *Stream) Close() error {
	s.conn.Close()
	return nil
}
