package core

import (
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/tcp"
)

// Config controls an MPTCP connection (and, through SubflowTemplate, its
// subflows). The zero value gives a working configuration with every
// mechanism from the paper enabled.
type Config struct {
	// EnableMPTCP requests MP_CAPABLE on the initial handshake. When false
	// the connection is plain single-path TCP (the baseline in every
	// experiment).
	EnableMPTCP bool

	// SubflowTemplate is the base configuration applied to every subflow
	// endpoint. Buffer fields are overridden by the connection-level buffer
	// configuration below.
	SubflowTemplate tcp.Config

	// SendBufBytes and RecvBufBytes bound the connection-level send queue
	// and the shared receive buffer (the "Rcv/Snd-Buffer size" swept in
	// Figures 4, 5, 6 and 9).
	SendBufBytes int
	RecvBufBytes int

	// Mechanisms from §4.2. The paper's "MPTCP+M1,2" corresponds to
	// OpportunisticRetransmit + PenalizeSlowSubflows; "regular MPTCP" has
	// all four disabled.
	OpportunisticRetransmit bool // Mechanism 1
	PenalizeSlowSubflows    bool // Mechanism 2
	AutoTuneBuffers         bool // Mechanism 3
	CwndCapping             bool // Mechanism 4

	// UseDSSChecksum protects mappings against content-modifying
	// middleboxes (§3.3.6). Disabling it models the datacenter configuration
	// of Figure 3.
	UseDSSChecksum bool

	// OfoAlgorithm selects the connection-level out-of-order reassembly
	// algorithm (§4.3, Figure 8).
	OfoAlgorithm buffer.Algorithm

	// SubflowsPerInterface opens several subflows per local interface
	// (distinct source ports). The receive-algorithm experiment (Figure 8)
	// uses 2 and 8 subflows over two physical links. Zero means one.
	SubflowsPerInterface int

	// PerSubflowReceiveWindow is an ablation of the §3.3.1 design
	// discussion: instead of sharing one receive buffer across subflows,
	// each subflow advertises its own slice of the buffer. This is the
	// "straightforward inheritance of TCP's receive window semantics" that
	// the paper shows can deadlock when a subflow fails silently.
	PerSubflowReceiveWindow bool

	// AdvertiseAddresses makes the server announce its additional addresses
	// with ADD_ADDR so a client behind a NAT can open subflows toward them
	// (§3.2).
	AdvertiseAddresses bool
}

// addSubflowDelay is how long after the connection is established the client
// waits before opening additional subflows (the implementation waits for the
// handshake to settle first).
const addSubflowDelay = 50 * time.Millisecond

// DefaultConfig returns the configuration used by the paper's "MPTCP+M1,2"
// setup with autotuning and checksums enabled. Every MPTCP connection runs
// the coupled controller and the lowest-RTT scheduler.
func DefaultConfig() Config {
	return Config{
		EnableMPTCP:             true,
		SendBufBytes:            512 << 10,
		RecvBufBytes:            512 << 10,
		OpportunisticRetransmit: true,
		PenalizeSlowSubflows:    true,
		AutoTuneBuffers:         true,
		CwndCapping:             false,
		UseDSSChecksum:          true,
		OfoAlgorithm:            buffer.AlgAllShortcuts,
		AdvertiseAddresses:      true,
	}
}

// RegularMPTCPConfig returns "regular MPTCP" as evaluated in Figure 4(a):
// none of the four sender-side mechanisms enabled.
func RegularMPTCPConfig() Config {
	cfg := DefaultConfig()
	cfg.OpportunisticRetransmit = false
	cfg.PenalizeSlowSubflows = false
	cfg.AutoTuneBuffers = false
	cfg.CwndCapping = false
	return cfg
}

// TCPOnlyConfig returns a configuration that never negotiates MPTCP; the
// connection behaves as single-path TCP on the dialing interface.
func TCPOnlyConfig() Config {
	cfg := DefaultConfig()
	cfg.EnableMPTCP = false
	return cfg
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SendBufBytes <= 0 {
		c.SendBufBytes = 512 << 10
	}
	if c.RecvBufBytes <= 0 {
		c.RecvBufBytes = 512 << 10
	}
	return c
}

// subflowConfig derives the tcp.Config for one subflow of a connection. The
// connection layer always manages payload and flow control through the
// hooks, whether or not MPTCP ends up being negotiated (fallback connections
// simply use an implicit one-to-one mapping), so the endpoint is always
// configured for hook-managed operation: its hooks supply the send queue, so
// in-order payload goes to the connection only.
func (c Config) subflowConfig() tcp.Config {
	sc := c.SubflowTemplate
	// Subflow buffers are bounded by the connection-level buffers: the
	// subflow-level limits must never be the bottleneck for MPTCP, and for
	// plain TCP they are exactly the configured connection buffers.
	sc.SendBufBytes = c.SendBufBytes
	sc.RecvBufBytes = c.RecvBufBytes
	// With the per-subflow-window ablation the subflow endpoint itself
	// enforces the peer's advertised window, exactly like plain TCP would.
	sc.ConnectionLevelWindow = !c.PerSubflowReceiveWindow
	// The congestion controller of an MPTCP subflow is supplied through the
	// hooks (Subflow.NewController): it needs the connection's shared group.
	return sc
}
