package middlebox

import (
	"fmt"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// sent is one segment an element passed on, and the direction it went.
type sent struct {
	dir netem.Direction
	seg *packet.Segment
}

// recCtx is a box context that records every Send instead of passing the
// segment on.
type recCtx struct {
	s    *sim.Simulator
	sent []sent
}

func newRecCtx() *recCtx { return &recCtx{s: sim.New(1)} }

func (c *recCtx) Sim() *sim.Simulator { return c.s }
func (c *recCtx) Send(dir netem.Direction, seg *packet.Segment) {
	c.sent = append(c.sent, sent{dir, seg})
}

// take returns the segments sent since the last take.
func (c *recCtx) take() []sent {
	out := c.sent
	c.sent = nil
	return out
}

// one returns the single segment sent since the last take, failing the test
// unless exactly one went on, in dir.
func (c *recCtx) one(t *testing.T, dir netem.Direction) *packet.Segment {
	t.Helper()
	out := c.take()
	if len(out) != 1 || out[0].dir != dir {
		t.Fatalf("sent %v, want one segment %v", out, dir)
	}
	return out[0].seg
}

func dataSeg(seq packet.SeqNum, payload string) *packet.Segment {
	return &packet.Segment{
		Src:     packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 1000},
		Dst:     packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 2), Port: 80},
		Seq:     seq,
		Ack:     1,
		Flags:   packet.FlagACK | packet.FlagPSH,
		Payload: []byte(payload),
		Options: []packet.Option{&packet.DSSOption{HasMapping: true, DataSeq: 1, SubflowOffset: uint32(seq), Length: uint16(len(payload))}},
	}
}

func TestNATRewritesAndRestores(t *testing.T) {
	n := NewNAT(packet.MakeAddr(100, 64, 0, 1), true)
	ctx := newRecCtx()
	seg := dataSeg(1, "x")
	orig := seg.Src
	n.Process(ctx, netem.AtoB, seg)
	if out := ctx.one(t, netem.AtoB); out.Src.Addr != packet.MakeAddr(100, 64, 0, 1) {
		t.Fatal("NAT did not rewrite the source address")
	}
	reply := &packet.Segment{Src: seg.Dst, Dst: seg.Src, Flags: packet.FlagACK}
	n.Process(ctx, netem.BtoA, reply)
	if back := ctx.one(t, netem.BtoA); back.Dst != orig {
		t.Fatalf("reverse translation wrong: got %v want %v", back.Dst, orig)
	}
}

func TestSeqRewriterConsistency(t *testing.T) {
	r := NewSeqRewriter(1000)
	ctx := newRecCtx()
	seg := dataSeg(500, "abc")
	r.Process(ctx, netem.AtoB, seg)
	if out := ctx.one(t, netem.AtoB); out.Seq != 1500 {
		t.Fatalf("forward seq = %d, want 1500", out.Seq)
	}
	// An ACK coming back for the rewritten space must be shifted back.
	ack := &packet.Segment{Src: seg.Dst, Dst: seg.Src, Flags: packet.FlagACK, Ack: 1503}
	r.Process(ctx, netem.BtoA, ack)
	if back := ctx.one(t, netem.BtoA); back.Ack != 503 {
		t.Fatalf("reverse ack = %d, want 503", back.Ack)
	}
}

// TestOptionStripperSYNOnly runs the stripper over SYNOnly × ActivateAt:
// before activation MPTCP options pass; from then on they are stripped from
// every segment, or from SYNs only; other options always survive, and Removed
// counts what was stripped.
func TestOptionStripperSYNOnly(t *testing.T) {
	const later = 1500 * time.Millisecond
	for _, tc := range []struct {
		synOnly         bool
		activateAt, now time.Duration
		stripSYN        bool
		stripData       bool
	}{
		{false, 0, 0, true, true},
		{true, 0, 0, true, false},
		{false, later, later - 1, false, false},
		{false, later, later, true, true},
		{true, later, later - 1, false, false},
		{true, later, 2 * later, true, false},
	} {
		name := fmt.Sprintf("synOnly=%v/activateAt=%v/now=%v", tc.synOnly, tc.activateAt, tc.now)
		s := &OptionStripper{SYNOnly: tc.synOnly, ActivateAt: tc.activateAt}
		if tc.activateAt == 0 && *s != *NewOptionStripper(tc.synOnly) {
			t.Fatalf("%s: NewOptionStripper(%v) = %+v", name, tc.synOnly, *NewOptionStripper(tc.synOnly))
		}
		ctx := newRecCtx()
		_ = ctx.s.RunUntil(tc.now)
		syn := &packet.Segment{Flags: packet.FlagSYN, Options: []packet.Option{&packet.MPCapableOption{SenderKey: 5}, &packet.MSSOption{MSS: 1460}}}
		data := dataSeg(1, "x")
		data.Options = append(data.Options, &packet.TimestampsOption{Val: 7})
		wantRemoved := 0
		for _, c := range []struct {
			seg   *packet.Segment
			strip bool
			kept  packet.OptionKind
		}{{syn, tc.stripSYN, packet.OptMSS}, {data, tc.stripData, packet.OptTimestamps}} {
			if s.Process(ctx, netem.AtoB, c.seg); ctx.one(t, netem.AtoB) != c.seg {
				t.Fatalf("%s: the stripper did not pass the segment itself on", name)
			}
			if c.seg.HasMPTCP() == c.strip {
				t.Errorf("%s: %v segment carries MPTCP = %v, want %v", name, c.seg.Flags, c.seg.HasMPTCP(), !c.strip)
			}
			if c.seg.FindOption(c.kept) == nil {
				t.Errorf("%s: %v segment lost its non-MPTCP option", name, c.seg.Flags)
			}
			if c.strip {
				wantRemoved++
			}
		}
		if s.Removed != wantRemoved {
			t.Errorf("%s: Removed = %d, want %d", name, s.Removed, wantRemoved)
		}
	}
}

// The splitter sends its fragments on in sequence order, each with the
// original's options, and only the last keeps PSH.
func TestSplitterCopiesOptions(t *testing.T) {
	sp := NewSplitter(4)
	ctx := newRecCtx()
	sp.Process(ctx, netem.BtoA, dataSeg(100, "abcdefghij"))
	out := ctx.take()
	want := []string{"abcd", "efgh", "ij"}
	if len(out) != len(want) {
		t.Fatalf("expected %d fragments, got %d", len(want), len(out))
	}
	for i, s := range out {
		frag := s.seg
		if s.dir != netem.BtoA || frag.Seq != packet.SeqNum(100+i*4) || string(frag.Payload) != want[i] {
			t.Fatalf("fragment %d: %v seq %d %q, want b->a seq %d %q", i, s.dir, frag.Seq, frag.Payload, 100+i*4, want[i])
		}
		if frag.MPTCPOption(packet.SubDSS) == nil {
			t.Fatalf("fragment %d lost the DSS option (TSO copies options)", i)
		}
		if last := i == len(out)-1; frag.Flags.Has(packet.FlagPSH) != last {
			t.Fatalf("fragment %d: PSH = %v, want %v", i, !last, last)
		}
	}
	if sp.Split != 1 {
		t.Fatalf("Split = %d, want 1", sp.Split)
	}
}

func TestCoalescerMergesAndKeepsOneOptionSet(t *testing.T) {
	c := NewCoalescer(2, 1<<20)
	ctx := newRecCtx()
	a := dataSeg(0, "aaaa")
	b := dataSeg(4, "bbbb")
	wantOpts := len(a.Options) // the coalescer consumes (releases) a and b
	if c.Process(ctx, netem.AtoB, a); len(ctx.sent) != 0 {
		t.Fatal("first segment should be held")
	}
	c.Process(ctx, netem.AtoB, b)
	merged := ctx.one(t, netem.AtoB)
	if string(merged.Payload) != "aaaabbbb" {
		t.Fatalf("merged payload = %q", merged.Payload)
	}
	if len(merged.Options) != wantOpts {
		t.Fatal("merged segment should keep only the first segment's options")
	}
	// A held segment with no follow-up must eventually be flushed by the
	// timer so data is never stuck at the middlebox.
	c2 := NewCoalescer(2, 1<<20)
	c2.Process(ctx, netem.AtoB, dataSeg(0, "zzzz"))
	_ = ctx.s.RunFor(10 * time.Millisecond)
	if flushed := ctx.one(t, netem.AtoB); string(flushed.Payload) != "zzzz" {
		t.Fatalf("flushed payload = %q", flushed.Payload)
	}
}

func TestProactiveACKerContiguityAndRetransmit(t *testing.T) {
	p := NewProactiveACKer()
	ctx := newRecCtx()
	data := dataSeg(0, "aaaa")
	p.Process(ctx, netem.AtoB, data)
	// The proxy's ACK goes back first, then the data goes on.
	if out := ctx.take(); len(out) != 2 || out[0].dir != netem.BtoA || out[0].seg.Ack != 4 ||
		out[1].dir != netem.AtoB || out[1].seg != data {
		t.Fatalf("expected a proxy ACK for 4 and then the data, got %v", out)
	}
	// A gap: segment at 8 while 4..8 is missing must NOT be acked.
	p.Process(ctx, netem.AtoB, dataSeg(8, "cccc"))
	ctx.one(t, netem.AtoB)
	// Receiver duplicate ACKs for 4 (three of them) trigger a proxy
	// retransmission of the buffered segment starting at 4 — once it exists.
	p.Process(ctx, netem.AtoB, dataSeg(4, "bbbb"))
	ctx.take()
	recvAck := &packet.Segment{Src: data.Dst, Dst: data.Src, Flags: packet.FlagACK, Ack: 4}
	for i := 0; i < 3; i++ {
		p.Process(ctx, netem.BtoA, recvAck.Clone())
	}
	out := ctx.take()
	if p.Retransmitted != 1 || len(out) != 4 {
		t.Fatalf("expected one proxy retransmission among the ACKs, got %d (sent %v)", p.Retransmitted, out)
	}
	if rtx := out[2]; rtx.dir != netem.AtoB || rtx.seg.Seq != 4 || string(rtx.seg.Payload) != "bbbb" {
		t.Fatalf("retransmission: %v seq %d %q, want a->b seq 4 \"bbbb\"", rtx.dir, rtx.seg.Seq, rtx.seg.Payload)
	}
}

// On a real path the proxy's own forged ACK must not come back to it as if the
// receiver had sent it: that would discard the copy it has just taken
// responsibility for, and the retransmission below could never happen.
func TestProactiveACKerKeepsAckedDataOnPath(t *testing.T) {
	s := sim.New(1)
	n := netem.Build(s, netem.Symmetric("p", netem.Mbps(10), time.Millisecond, 0, 0))
	p := NewProactiveACKer()
	n.Path(0).AddBox(p)
	var atServer, atClient []*packet.Segment
	n.Server.OnUnmatched = func(_ *netem.Interface, seg *packet.Segment) { atServer = append(atServer, seg) }
	n.Client.OnUnmatched = func(_ *netem.Interface, seg *packet.Segment) { atClient = append(atClient, seg) }

	data := dataSeg(0, "aaaa")
	flow := data.Tuple()
	n.Client.Interfaces()[0].Send(data)
	_ = s.Run()
	if len(atClient) != 1 || atClient[0].Ack != 4 || p.Acked != 1 {
		t.Fatalf("expected one proxy ACK for 4 at the client, got %v (acked %d)", atClient, p.Acked)
	}
	if len(atServer) != 1 || p.buffered[flow][0] == nil {
		t.Fatalf("proxy dropped the segment it acknowledged: delivered %d, buffered %v", len(atServer), p.buffered[flow])
	}
	// The receiver lost it after the proxy: its third duplicate ACK for 0
	// makes the proxy retransmit its copy.
	for i := 0; i < 3; i++ {
		n.Server.Interfaces()[0].Send(&packet.Segment{Src: data.Dst, Dst: data.Src, Flags: packet.FlagACK, Ack: 0})
	}
	_ = s.Run()
	if p.Retransmitted != 1 || len(atServer) != 2 || string(atServer[1].Payload) != "aaaa" {
		t.Fatalf("expected the proxy to retransmit its copy: retransmitted %d, server saw %v", p.Retransmitted, atServer)
	}
}

func TestPayloadCorrupterAndHoleBlocker(t *testing.T) {
	ctx := newRecCtx()
	pc := NewPayloadCorrupter(1)
	seg := dataSeg(0, "abcd")
	pc.Process(ctx, netem.AtoB, seg)
	if ctx.one(t, netem.AtoB) != seg || seg.Payload[0] == 'a' {
		t.Fatal("corrupter did not modify the payload")
	}

	hb := NewHoleBlocker()
	syn := &packet.Segment{Flags: packet.FlagSYN, Seq: 99, Src: seg.Src, Dst: seg.Dst}
	hb.Process(ctx, netem.AtoB, syn)
	ctx.one(t, netem.AtoB)
	inOrder := dataSeg(100, "abcd")
	if hb.Process(ctx, netem.AtoB, inOrder); ctx.one(t, netem.AtoB) != inOrder {
		t.Fatal("in-order data must pass")
	}
	afterHole := dataSeg(200, "zzzz")
	if hb.Process(ctx, netem.AtoB, afterHole); len(ctx.take()) != 0 {
		t.Fatal("data after a hole must be blocked")
	}
	if hb.Blocked != 1 {
		t.Fatalf("blocked count = %d", hb.Blocked)
	}
}

func TestReserializerRoundTripsSegments(t *testing.T) {
	r := NewReserializer()
	ctx := newRecCtx()
	seg := &packet.Segment{
		Src:    packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 40001},
		Dst:    packet.Endpoint{Addr: packet.MakeAddr(10, 0, 1, 2), Port: 80},
		Seq:    7777,
		Ack:    8888,
		Flags:  packet.FlagACK | packet.FlagPSH,
		Window: 4321,
		Options: []packet.Option{
			&packet.TimestampsOption{Val: 11, Echo: 22},
			&packet.DSSOption{HasDataACK: true, DataACK: 99, HasMapping: true, DataSeq: 1234, SubflowOffset: 55, Length: 5, HasChecksum: true, Checksum: 0xfeed},
		},
		Payload: []byte("hello"),
		SentAt:  123 * time.Millisecond,
		Ordinal: 42,
		// A stale hop (Size 0, so the segment is no link's) must not cross.
		Hop: packet.Hop{Next: dataSeg(1, "x"), Done: time.Second, At: 2 * time.Second, Seq: 9},
	}
	want := seg.Clone() // keep an independent copy for comparison
	r.Process(ctx, netem.AtoB, seg)
	got := ctx.one(t, netem.AtoB)
	if r.Errors != 0 || r.Reserialized != 1 {
		t.Fatalf("errors=%d reserialized=%d", r.Errors, r.Reserialized)
	}
	if got.Src != want.Src || got.Dst != want.Dst || got.Seq != want.Seq ||
		got.Ack != want.Ack || got.Flags != want.Flags || got.Window != want.Window {
		t.Fatalf("header changed across the wire: got %v want %v", got, want)
	}
	if got.SentAt != want.SentAt || got.Ordinal != want.Ordinal {
		t.Fatal("simulator metadata not carried across the codec round trip")
	}
	if got.Hop != (packet.Hop{}) {
		t.Fatalf("link state carried across the codec round trip: %+v", got.Hop)
	}
	if string(got.Payload) != string(want.Payload) {
		t.Fatalf("payload changed: %q", got.Payload)
	}
	if len(got.Options) != len(want.Options) {
		t.Fatalf("option count changed: got %d want %d", len(got.Options), len(want.Options))
	}
	for i := range want.Options {
		if got.Options[i].String() != want.Options[i].String() {
			t.Fatalf("option %d changed: got %v want %v", i, got.Options[i], want.Options[i])
		}
	}
	got.Release()
	want.Release()
}

// The injector lets After segments of an MP_JOIN flow through, then forges
// one RST each way — toward the receiver on the killed segment's own
// coordinates, toward the sender as an endpoint would answer it — and
// blackholes the flow from then on, RSTs excepted.
func TestRSTInjectorForgesOneRSTEachWay(t *testing.T) {
	r := NewRSTInjector(1)
	ctx := newRecCtx()
	join := dataSeg(1000, "")
	join.Flags = packet.FlagSYN
	join.Options = []packet.Option{&packet.MPJoinOption{ReceiverToken: 7}}
	r.Process(ctx, netem.AtoB, join)
	ctx.one(t, netem.AtoB)

	kill := dataSeg(1001, "abcd")
	src, dst, seq, ack, end := kill.Src, kill.Dst, kill.Seq, kill.Ack, kill.EndSeq()
	r.Process(ctx, netem.AtoB, kill)
	out := ctx.take()
	if len(out) != 2 || r.Injected != 2 || r.Killed != 1 {
		t.Fatalf("sent %v (injected %d, killed %d), want two RSTs", out, r.Injected, r.Killed)
	}
	rst := packet.FlagRST | packet.FlagACK
	if f := out[0]; f.dir != netem.AtoB || f.seg.Src != src || f.seg.Dst != dst ||
		f.seg.Seq != seq || f.seg.Ack != ack || f.seg.Flags != rst || len(f.seg.Payload) != 0 {
		t.Errorf("forward RST = %v %v, want a->b %v->%v seq %d ack %d", f.dir, f.seg, src, dst, seq, ack)
	}
	if b := out[1]; b.dir != netem.BtoA || b.seg.Src != dst || b.seg.Dst != src ||
		b.seg.Seq != ack || b.seg.Ack != end || b.seg.Flags != rst || len(b.seg.Payload) != 0 {
		t.Errorf("reverse RST = %v %v, want b->a %v->%v seq %d ack %d", b.dir, b.seg, dst, src, ack, end)
	}

	r.Process(ctx, netem.BtoA, &packet.Segment{Src: dst, Dst: src, Flags: packet.FlagACK, Ack: end})
	if out := ctx.take(); len(out) != 0 {
		t.Fatalf("condemned flow passed %v", out)
	}
	reset := &packet.Segment{Src: dst, Dst: src, Flags: packet.FlagRST}
	if r.Process(ctx, netem.BtoA, reset); ctx.one(t, netem.BtoA) != reset {
		t.Fatal("a RST of a condemned flow must pass")
	}
}
