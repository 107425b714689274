package bonding

import (
	"fmt"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// TestRoundRobinStriping pins balance-rr in both directions: segment i of a
// run leaves on member i mod n, the members transmit in send order, every
// segment reaches the far host, and the members' SentPackets add up to the
// segments sent.
func TestRoundRobinStriping(t *testing.T) {
	const members, segments = 3, 10
	s := sim.New(1)
	hostA, hostB := netem.NewHost(s, "a"), netem.NewHost(s, "b")
	a := hostA.AddInterface(packet.MakeAddr(10, 0, 0, 1))
	b := hostB.AddInterface(packet.MakeAddr(10, 0, 0, 2))
	member := netem.LinkConfig{RateBps: netem.Mbps(10), Delay: time.Millisecond}
	pair := Attach(s, "bond", a, b, member, members)

	for _, dir := range []struct {
		name     string
		from, to *netem.Interface
		bond     *Bond
	}{
		{"a->b", a, b, pair.AtoB},
		{"b->a", b, a, pair.BtoA},
	} {
		if n := len(dir.bond.Links()); n != members {
			t.Fatalf("%s: %d member links, want %d", dir.name, n, members)
		}
		var got []string // "seq@member", in transmit order
		for m, l := range dir.bond.Links() {
			m := m
			l.OnTransmit = func(seg *packet.Segment) { got = append(got, fmt.Sprintf("%d@%d", seg.Seq, m)) }
		}
		delivered := 0
		dir.to.Host().OnUnmatched = func(_ *netem.Interface, seg *packet.Segment) {
			delivered++
			seg.Release()
		}
		for i := 0; i < segments; i++ {
			seg := packet.NewSegment()
			seg.Src = packet.Endpoint{Addr: dir.from.Addr(), Port: 1000}
			seg.Dst = packet.Endpoint{Addr: dir.to.Addr(), Port: 80}
			seg.Seq = packet.SeqNum(i)
			seg.Flags = packet.FlagACK
			dir.from.Send(seg)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < segments; i++ {
			if want := fmt.Sprintf("%d@%d", i, i%members); i >= len(got) || got[i] != want {
				t.Fatalf("%s: transmit order %v, want segment %d as %s", dir.name, got, i, want)
			}
		}
		if len(got) != segments || delivered != segments {
			t.Fatalf("%s: %d transmitted, %d delivered, want %d each", dir.name, len(got), delivered, segments)
		}
		var sent uint64
		for _, l := range dir.bond.Links() {
			sent += l.Stats().SentPackets
		}
		if sent != segments {
			t.Errorf("%s: members sent %d packets in all, want %d", dir.name, sent, segments)
		}
	}
}
