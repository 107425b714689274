// Package bonding models Linux balance-rr link bonding: several physical
// links between the same pair of hosts are presented as one logical
// interface, and packets are spread over the member links in round-robin
// order. It is the baseline MPTCP is compared against in the HTTP experiment
// (Figure 11): bonding aggregates capacity below TCP, so a single TCP
// connection sees the sum of the link rates but also the reordering and the
// per-link congestion that round-robin striping causes.
package bonding

import (
	"fmt"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// Bond is one direction of a bonded set of links.
type Bond struct {
	links []*netem.Link
	next  int
}

// Send implements netem.Sender: packets are assigned to member links in
// round-robin order, exactly like the Linux bonding driver's balance-rr mode.
func (b *Bond) Send(seg *packet.Segment) {
	if len(b.links) == 0 {
		return
	}
	link := b.links[b.next%len(b.links)]
	b.next++
	link.Send(seg)
}

// Links returns the member links (for stats).
func (b *Bond) Links() []*netem.Link { return b.links }

// Pair is a bidirectional bonded connection between two interfaces.
type Pair struct {
	AtoB *Bond
	BtoA *Bond
}

// Attach creates count parallel member links with the given per-member
// configuration between interfaces a and b, bonds them in both directions
// and attaches the bonds to the interfaces.
func Attach(s *sim.Simulator, name string, a, b *netem.Interface, member netem.LinkConfig, count int) *Pair {
	if count < 1 {
		count = 1
	}
	ab, ba := &Bond{}, &Bond{}
	for i := 0; i < count; i++ {
		ab.links = append(ab.links, netem.NewLink(s, fmt.Sprintf("%s/ab%d", name, i), member, b))
		ba.links = append(ba.links, netem.NewLink(s, fmt.Sprintf("%s/ba%d", name, i), member, a))
	}
	a.AttachSender(ab)
	b.AttachSender(ba)
	return &Pair{AtoB: ab, BtoA: ba}
}
