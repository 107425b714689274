package core

import (
	"slices"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/tcp"
)

// Manager is the per-host MPTCP stack: it owns the token table used to
// demultiplex MP_JOINs and to guarantee token uniqueness, and it creates
// client connections and listeners.
type Manager struct {
	host   *netem.Host
	tokens *TokenTable
	conns  []*Connection

	// probeRec, when non-nil, records flight-recorder events for this
	// host's connections under global member index probeMember. Connection
	// IDs are assigned per manager in dial order (nextConnID), which is
	// deterministic per member and independent of shard layout.
	probeRec    *probe.Recorder
	probeMember int
	nextConnID  int32
}

// NewManager creates the MPTCP stack for a host.
func NewManager(host *netem.Host) *Manager {
	return &Manager{host: host, tokens: NewTokenTable()}
}

// Host returns the underlying host.
func (m *Manager) Host() *netem.Host { return m.host }

// SetProbe attaches a flight recorder: every connection dialed afterwards
// records events and samples under the given global member index. A nil
// recorder (the default) keeps all instrumentation dormant.
func (m *Manager) SetProbe(rec *probe.Recorder, member int) {
	m.probeRec = rec
	m.probeMember = member
}

// Probe returns the attached flight recorder (nil when tracing is off) and
// the member index it records under.
func (m *Manager) Probe() (*probe.Recorder, int) { return m.probeRec, m.probeMember }

// Connections returns the currently tracked connections.
func (m *Manager) Connections() []*Connection { return m.conns }

// RemoveLocalInterface withdraws an interface from every tracked connection
// (mid-session interface loss, §3.4): affected subflows are failed, their data
// reinjected, and REMOVE_ADDR sent to peers over surviving subflows. The
// fault-injection layer drives this to emulate mobility churn.
func (m *Manager) RemoveLocalInterface(ifc *netem.Interface) {
	conns := append([]*Connection(nil), m.conns...)
	for _, c := range conns {
		c.RemoveLocalInterface(ifc)
	}
}

// RestoreLocalInterface reacts to an interface returning: clients re-open
// subflows across it, servers re-advertise its address.
func (m *Manager) RestoreLocalInterface(ifc *netem.Interface) {
	conns := append([]*Connection(nil), m.conns...)
	for _, c := range conns {
		c.RestoreLocalInterface(ifc)
	}
}

// Dial opens a new (MPTCP or plain TCP) connection from the given local
// interface toward the remote endpoint.
func (m *Manager) Dial(iface *netem.Interface, remote packet.Endpoint, cfg Config) (*Connection, error) {
	c := newConnection(m, cfg, true)
	c.dialCfg.remote = remote
	c.dialCfg.port = remote.Port
	if c.cfg.EnableMPTCP {
		key, token := m.tokens.GenerateUniqueKey(m.host.Sim().RNG())
		c.localKey, c.localIDSN = key.Key, key.IDSN
		c.localToken = token
		m.tokens.Insert(token, c)
	}
	s := c.newSubflow(RoleInitial, true)
	scfg := c.cfg.subflowConfig()
	if c.probe != nil {
		scfg.Probe = s
	}
	ep, err := tcp.Dial(iface, remote, scfg, s)
	if err != nil {
		// The host refused the four-tuple (its ephemeral ports wrapped onto
		// a live connection): nothing tracks c, so its token goes and its
		// structs go back to the free lists.
		if c.cfg.EnableMPTCP {
			m.tokens.Remove(c.localToken)
		}
		c.recycle()
		return nil, err
	}
	s.ep = ep
	c.markRemoteUsed(remote)
	m.conns = append(m.conns, c)
	return c, nil
}

// removeConnection forgets a finished connection. The list keeps dial order
// (RemoveLocalInterface walks it, and event order follows), and the slot the
// shift vacates is cleared, so the backing array does not keep the
// connection reachable.
func (m *Manager) removeConnection(c *Connection) {
	if c.localToken != 0 {
		m.tokens.Remove(c.localToken)
	}
	if i := slices.Index(m.conns, c); i >= 0 {
		last := len(m.conns) - 1
		copy(m.conns[i:], m.conns[i+1:])
		m.conns[last] = nil
		m.conns = m.conns[:last]
	}
}

// AcceptCallback is invoked for every new connection a Listener accepts,
// before any data arrives, so the application can install its callbacks.
type AcceptCallback func(*Connection)

// Listener accepts MPTCP (and plain TCP) connections on one port.
type Listener struct {
	mgr      *Manager
	cfg      Config
	port     uint16
	tl       *tcp.Listener
	acceptCb AcceptCallback

	// pending carries the subflow created in HooksFactory to the AcceptFunc
	// that runs immediately afterwards for the same SYN.
	pending *Subflow
	// pendingNew marks whether the pending subflow's connection is new (so
	// the application callback fires exactly once per connection).
	pendingNew bool
}

// Listen installs an MPTCP listener on the manager's host.
func (m *Manager) Listen(port uint16, cfg Config, acceptCb AcceptCallback) (*Listener, error) {
	cfg = cfg.withDefaults()
	l := &Listener{mgr: m, cfg: cfg, port: port, acceptCb: acceptCb}
	tl, err := tcp.Listen(m.host, port, cfg.subflowConfig(), l.onAccept)
	if err != nil {
		return nil, err
	}
	tl.HooksFactory = l.hooksForSYN
	l.tl = tl
	return l, nil
}

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Close removes the listener.
func (l *Listener) Close() { l.tl.Close() }

// hooksForSYN inspects a SYN and builds the subflow (and, for MP_CAPABLE,
// the connection) it belongs to. Returning ok=false rejects the SYN.
func (l *Listener) hooksForSYN(syn *packet.Segment) (tcp.Hooks, bool) {
	l.pending = nil
	l.pendingNew = false

	if join, ok := syn.MPTCPOption(packet.SubMPJoin).(*packet.MPJoinOption); ok && join != nil {
		conn := l.mgr.tokens.Lookup(join.ReceiverToken)
		if conn == nil || conn.closed || !conn.MPTCPActive() {
			return nil, false // unknown token: refuse the subflow
		}
		s := conn.newSubflow(RoleJoin, false)
		s.addrID = join.AddrID
		s.backup = join.Backup
		s.remoteNonce = join.SenderNonce
		s.localNonce = l.mgr.host.Sim().RNG().Uint32()
		l.pending = s
		l.pendingNew = false
		return s, true
	}

	cfg := l.cfg
	c := newConnection(l.mgr, cfg, false)
	c.dialCfg.port = l.port

	if cap, ok := syn.MPTCPOption(packet.SubMPCapable).(*packet.MPCapableOption); ok && cap != nil && cfg.EnableMPTCP {
		// MP_CAPABLE handshake: record the client's key, generate our own
		// and verify its token is unique among established connections
		// (§5.2 — this is the cost Figure 10 measures).
		c.remoteKey = Key(cap.SenderKey)
		c.remoteToken, c.remoteIDSN = c.remoteKey.TokenAndIDSN()
		if cap.ChecksumRequired {
			c.cfg.UseDSSChecksum = true
		}
		key, token := l.mgr.tokens.GenerateUniqueKey(l.mgr.host.Sim().RNG())
		c.localKey, c.localIDSN = key.Key, key.IDSN
		c.localToken = token
		l.mgr.tokens.Insert(token, c)
		c.mptcpActive = true
	} else {
		// Plain TCP client (or MPTCP disabled): accept as a fallback
		// connection.
		c.mptcpActive = false
	}

	s := c.newSubflow(RoleInitial, false)
	l.mgr.conns = append(l.mgr.conns, c)
	l.pending = s
	l.pendingNew = true
	return s, true
}

// onAccept wires the created endpoint into the pending subflow and hands new
// connections to the application.
func (l *Listener) onAccept(ep *tcp.Endpoint, syn *packet.Segment) {
	s := l.pending
	if s == nil {
		return
	}
	l.pending = nil
	s.ep = ep
	conn := s.conn
	// Servers advertise their additional addresses so clients behind NATs
	// can open subflows toward them (§3.2).
	if conn.cfg.AdvertiseAddresses && conn.MPTCPActive() && s.role == RoleInitial {
		s.addAddrRepeats = 3
	}
	if l.pendingNew && l.acceptCb != nil {
		l.acceptCb(conn)
	}
}
