package middlebox

import (
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

type nopCtx struct{ s *sim.Simulator }

func (c nopCtx) Now() time.Duration                              { return c.s.Now() }
func (c nopCtx) Sim() *sim.Simulator                             { return c.s }
func (c nopCtx) Inject(dir netem.Direction, seg *packet.Segment) {}

// collectCtx records injected segments.
type collectCtx struct {
	s        *sim.Simulator
	injected []*packet.Segment
}

func (c *collectCtx) Now() time.Duration  { return c.s.Now() }
func (c *collectCtx) Sim() *sim.Simulator { return c.s }
func (c *collectCtx) Inject(dir netem.Direction, seg *packet.Segment) {
	c.injected = append(c.injected, seg)
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
	ctx := nopCtx{s: sim.New(1)}
	seg := dataSeg(1, "x")
	orig := seg.Src
	out := n.Process(ctx, netem.AtoB, seg)
	if len(out) != 1 || out[0].Src.Addr != packet.MakeAddr(100, 64, 0, 1) {
		t.Fatal("NAT did not rewrite the source address")
	}
	reply := &packet.Segment{Src: out[0].Dst, Dst: out[0].Src, Flags: packet.FlagACK}
	back := n.Process(ctx, netem.BtoA, reply)
	if back[0].Dst != orig {
		t.Fatalf("reverse translation wrong: got %v want %v", back[0].Dst, orig)
	}
}

func TestSeqRewriterConsistency(t *testing.T) {
	r := NewSeqRewriter(1000)
	ctx := nopCtx{s: sim.New(1)}
	seg := dataSeg(500, "abc")
	out := r.Process(ctx, netem.AtoB, seg)
	if out[0].Seq != 1500 {
		t.Fatalf("forward seq = %d, want 1500", out[0].Seq)
	}
	// An ACK coming back for the rewritten space must be shifted back.
	ack := &packet.Segment{Src: seg.Dst, Dst: seg.Src, Flags: packet.FlagACK, Ack: 1503}
	back := r.Process(ctx, netem.BtoA, ack)
	if back[0].Ack != 503 {
		t.Fatalf("reverse ack = %d, want 503", back[0].Ack)
	}
}

func TestOptionStripperSYNOnly(t *testing.T) {
	s := NewOptionStripper(true)
	ctx := nopCtx{s: sim.New(1)}
	syn := &packet.Segment{Flags: packet.FlagSYN, Options: []packet.Option{&packet.MPCapableOption{SenderKey: 5}, &packet.MSSOption{MSS: 1460}}}
	s.Process(ctx, netem.AtoB, syn)
	if syn.HasMPTCP() {
		t.Fatal("MPTCP option should be stripped from the SYN")
	}
	if syn.FindOption(packet.OptMSS) == nil {
		t.Fatal("non-MPTCP options must be preserved")
	}
	data := dataSeg(1, "x")
	s.Process(ctx, netem.AtoB, data)
	if !data.HasMPTCP() {
		t.Fatal("SYN-only stripper must not touch data segments")
	}
}

func TestSplitterCopiesOptions(t *testing.T) {
	sp := NewSplitter(4)
	ctx := nopCtx{s: sim.New(1)}
	seg := dataSeg(100, "abcdefghij")
	out := sp.Process(ctx, netem.AtoB, seg)
	if len(out) != 3 {
		t.Fatalf("expected 3 fragments, got %d", len(out))
	}
	total := 0
	for i, frag := range out {
		total += len(frag.Payload)
		if frag.MPTCPOption(packet.SubDSS) == nil {
			t.Fatalf("fragment %d lost the DSS option (TSO copies options)", i)
		}
		if frag.Seq != packet.SeqNum(100+i*4) {
			t.Fatalf("fragment %d has seq %d", i, frag.Seq)
		}
	}
	if total != 10 {
		t.Fatalf("fragments carry %d bytes, want 10", total)
	}
}

func TestCoalescerMergesAndKeepsOneOptionSet(t *testing.T) {
	s := sim.New(1)
	c := NewCoalescer(2, 1<<20)
	ctx := &collectCtx{s: s}
	a := dataSeg(0, "aaaa")
	b := dataSeg(4, "bbbb")
	wantOpts := len(a.Options) // the coalescer consumes (releases) a and b
	out := c.Process(ctx, netem.AtoB, a)
	if len(out) != 0 {
		t.Fatal("first segment should be held")
	}
	out = c.Process(ctx, netem.AtoB, b)
	if len(out) != 1 {
		t.Fatalf("expected one merged segment, got %d", len(out))
	}
	if string(out[0].Payload) != "aaaabbbb" {
		t.Fatalf("merged payload = %q", out[0].Payload)
	}
	if len(out[0].Options) != wantOpts {
		t.Fatal("merged segment should keep only the first segment's options")
	}
	// A held segment with no follow-up must eventually be flushed by the
	// timer so data is never stuck at the middlebox.
	c2 := NewCoalescer(2, 1<<20)
	ctx2 := &collectCtx{s: s}
	c2.Process(ctx2, netem.AtoB, dataSeg(0, "zzzz"))
	_ = s.RunFor(10 * time.Millisecond)
	if len(ctx2.injected) != 1 {
		t.Fatalf("held segment was not flushed, injected=%d", len(ctx2.injected))
	}
}

func TestProactiveACKerContiguityAndRetransmit(t *testing.T) {
	s := sim.New(1)
	p := NewProactiveACKer()
	ctx := &collectCtx{s: s}
	p.Process(ctx, netem.AtoB, dataSeg(0, "aaaa"))
	if len(ctx.injected) != 1 || ctx.injected[0].Ack != 4 {
		t.Fatalf("expected a proxy ACK for 4, got %+v", ctx.injected)
	}
	// A gap: segment at 8 while 4..8 is missing must NOT be acked.
	p.Process(ctx, netem.AtoB, dataSeg(8, "cccc"))
	if len(ctx.injected) != 1 {
		t.Fatal("proxy must not acknowledge past a hole")
	}
	// Receiver duplicate ACKs for 4 (three of them) trigger a proxy
	// retransmission of the buffered segment starting at 4 — once it exists.
	p.Process(ctx, netem.AtoB, dataSeg(4, "bbbb"))
	recvAck := &packet.Segment{Src: dataSeg(0, "").Dst, Dst: dataSeg(0, "").Src, Flags: packet.FlagACK, Ack: 4}
	for i := 0; i < 3; i++ {
		p.Process(ctx, netem.BtoA, recvAck.Clone())
	}
	if p.Retransmitted != 1 {
		t.Fatalf("expected one proxy retransmission, got %d", p.Retransmitted)
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
	ctx := nopCtx{s: sim.New(1)}
	pc := NewPayloadCorrupter(1)
	seg := dataSeg(0, "abcd")
	pc.Process(ctx, netem.AtoB, seg)
	if seg.Payload[0] == 'a' {
		t.Fatal("corrupter did not modify the payload")
	}

	hb := NewHoleBlocker()
	syn := &packet.Segment{Flags: packet.FlagSYN, Seq: 99, Src: seg.Src, Dst: seg.Dst}
	hb.Process(ctx, netem.AtoB, syn)
	inOrder := dataSeg(100, "abcd")
	if out := hb.Process(ctx, netem.AtoB, inOrder); len(out) != 1 {
		t.Fatal("in-order data must pass")
	}
	afterHole := dataSeg(200, "zzzz")
	if out := hb.Process(ctx, netem.AtoB, afterHole); len(out) != 0 {
		t.Fatal("data after a hole must be blocked")
	}
	if hb.Blocked != 1 {
		t.Fatalf("blocked count = %d", hb.Blocked)
	}
}

func TestReserializerRoundTripsSegments(t *testing.T) {
	r := NewReserializer()
	ctx := nopCtx{s: sim.New(1)}
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
	}
	want := seg.Clone() // keep an independent copy for comparison
	out := r.Process(ctx, netem.AtoB, seg)
	if len(out) != 1 {
		t.Fatalf("reserializer forwarded %d segments; want 1", len(out))
	}
	got := out[0]
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
