// Package middlebox implements models of the middlebox behaviours that shaped
// the MPTCP design (§3, §4.1 of the paper), mirroring the Click elements the
// authors used to validate their implementation:
//
//   - NAT (address/port rewriting)
//   - TCP initial sequence number rewriting
//   - TCP option removal (from SYNs only, or from all segments)
//   - Segment splitting (TSO-like, options copied onto every fragment)
//   - Segment coalescing (traffic normalizer, only one option set survives)
//   - Pro-active ACKing (transparent proxy)
//   - Payload modification (in-path content corruption)
//   - Hole blocking (proxies that refuse to forward data after a gap)
//
// Elements implement netem.Box and are composed onto a netem.Path.
package middlebox

import "mptcpgo/internal/packet"

// forward is a helper returning a single-segment result.
func forward(seg *packet.Segment) []*packet.Segment { return []*packet.Segment{seg} }
