// Package mptcpgo is a library-level reproduction of "How Hard Can It Be?
// Designing and Implementing a Deployable Multipath TCP" (NSDI 2012): a full
// Multipath TCP implementation (MP_CAPABLE/MP_JOIN handshakes, data sequence
// mappings with checksums, explicit DATA_ACKs, shared receive buffer,
// fallback to regular TCP, and the paper's sender-side mechanisms) running
// over a deterministic discrete-event network emulator, together with the
// experiment harnesses that regenerate every figure of the paper's
// evaluation.
//
// The package is the public facade over the internal packages (netem, tcp,
// core, experiments, fleet), split by pillar:
//
//   - topology.go — the composable Topology builder: named hosts joined by
//     (possibly asymmetric) links and middlebox chains, N clients × M
//     servers, materialised into a Network with one MPTCP stack per host.
//   - conn.go — net-style connections: Dial(host, "server:80", opts...) and
//     the Stream wrapper that makes connections ordinary
//     io.ReadWriteClosers.
//   - results.go — structured experiment access: Run returns a typed Result
//     with Text/JSON/CSV encoders.
//   - fleet.go, chaos.go, telemetry.go — the sharded many-connection
//     scenario builders (Fleet, OpenLoop, Chaos) and the run-observability
//     plane they feed.
//   - mptcp.go (this file) — connection configurations.
//
// The package examples are runnable programs whose output `go test` checks.
// DESIGN.md has the system inventory and the facade layering.
package mptcpgo

import "mptcpgo/internal/core"

// Config selects the connection behaviour. The zero value is not valid; use
// DefaultConfig, RegularMPTCPConfig or TCPConfig as a starting point.
type Config = core.Config

// DefaultConfig returns MPTCP with every mechanism from the paper enabled
// (the "MPTCP+M1,2" configuration plus autotuning and DSS checksums).
func DefaultConfig() Config { return core.DefaultConfig() }

// RegularMPTCPConfig returns MPTCP with the sender-side mechanisms disabled
// ("regular MPTCP" in Figure 4).
func RegularMPTCPConfig() Config { return core.RegularMPTCPConfig() }

// TCPConfig returns single-path TCP (the baseline in every experiment).
func TCPConfig() Config { return core.TCPOnlyConfig() }

// Conn is an established (or establishing) connection: a byte stream striped
// across one or more subflows.
type Conn = core.Connection

// Listener accepts connections on the server host.
type Listener = core.Listener
