package faults

import (
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

func TestParsePresetsAndRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		sp, err := Parse(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if name == "none" {
			if !sp.Empty() {
				t.Fatalf("preset none parsed to %v", sp)
			}
			continue
		}
		// The canonical reserialization must parse back to the same spec.
		again, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("preset %s: reparse %q: %v", name, sp.String(), err)
		}
		if again.String() != sp.String() {
			t.Fatalf("preset %s: round trip %q != %q", name, again.String(), sp.String())
		}
	}
}

func TestParseDefaultsAndClauses(t *testing.T) {
	sp := MustParse("flap;loss:rate=0.5")
	if len(sp.Faults) != 2 {
		t.Fatalf("got %d clauses", len(sp.Faults))
	}
	f := sp.Faults[0]
	if f.Kind != "flap" || f.Path != 1 || f.Period != time.Second || f.Down != 250*time.Millisecond || f.At != 500*time.Millisecond {
		t.Fatalf("flap defaults: %+v", f)
	}
	l := sp.Faults[1]
	if l.Path != -1 || l.Rate != 0.5 || l.Dur != 2*time.Second {
		t.Fatalf("loss defaults: %+v", l)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"explode",                // unknown kind
		"flap:period=1s,down=2s", // down must be shorter than period
		"loss:rate=1.5",          // rate out of range
		"squeeze:factor=2",       // factor must shrink
		"flap:bogus=1",           // unknown key
		"flap:path",              // malformed kv
		"down:at=notaduration",   // bad duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestCheckerCatchesCorruptionAndShortDelivery(t *testing.T) {
	k := NewChecker(7, 8)
	buf := make([]byte, 8)
	k.Fill(buf, 0)
	k.Feed(buf[:4])
	if !k.Intact() || k.Complete() {
		t.Fatalf("half-fed checker: intact=%v complete=%v", k.Intact(), k.Complete())
	}
	if err := k.Err(); err == nil || !strings.Contains(err.Error(), "short delivery") {
		t.Fatalf("short delivery not reported: %v", err)
	}
	buf[4] ^= 0xFF
	k.Feed(buf[4:])
	if k.Intact() || k.Complete() {
		t.Fatal("corruption not detected")
	}
	if err := k.Err(); err == nil || !strings.Contains(err.Error(), "corruption at offset 4") {
		t.Fatalf("wrong corruption report: %v", err)
	}

	ok := NewChecker(7, 8)
	ok.Fill(buf, 0)
	ok.Feed(buf)
	if !ok.Complete() {
		t.Fatalf("clean feed: %v", ok.Err())
	}
}

func TestClassifyFallback(t *testing.T) {
	cases := map[string]string{
		"no MP_CAPABLE in SYN/ACK":                  "handshake-strip",
		"mptcp options stripped after handshake":    "midstream-strip",
		"peer signalled MP_FAIL (checksum failure)": "mp-fail",
		"data checksum mismatch":                    "checksum",
		"data received without a mapping":           "unmapped-data",
		"something else entirely":                   "other",
	}
	for reason, want := range cases {
		if got := ClassifyFallback(reason); got != want {
			t.Errorf("ClassifyFallback(%q)=%q, want %q", reason, got, want)
		}
	}
}

// chaosNet builds a two-path client/server network with MPTCP managers.
func chaosNet(t *testing.T, seed uint64) (*netem.Network, *core.Manager, *core.Manager) {
	t.Helper()
	s := sim.New(seed)
	n := netem.Build(s, netem.WiFi3GSpec()...)
	return n, core.NewManager(n.Client), core.NewManager(n.Server)
}

// runCheckedTransfer uploads total patterned bytes client->server under the
// given fault schedule and returns the server-side checker, the injector and
// the client connection.
func runCheckedTransfer(t *testing.T, spec Spec, total int, deadline time.Duration) (*Checker, *Injector, *core.Connection) {
	t.Helper()
	n, cliMgr, srvMgr := chaosNet(t, 11)
	checker := NewChecker(99, total)

	_, err := srvMgr.Listen(80, core.DefaultConfig(), func(c *core.Connection) {
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				checker.Feed(data)
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	cfg := core.DefaultConfig()
	cfg.SubflowTemplate.MaxRTORetries = 4
	conn, err := cliMgr.Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	buf := make([]byte, 32<<10)
	sent := 0
	pump := func() {
		for sent < total {
			chunk := len(buf)
			if total-sent < chunk {
				chunk = total - sent
			}
			checker.Fill(buf[:chunk], uint64(sent))
			w := conn.Write(buf[:chunk])
			if w == 0 {
				return
			}
			sent += w
		}
		conn.Close()
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump

	inj := Apply(n.Sim, spec, n.Paths, cliMgr, 42, 0)
	if err := n.Sim.RunUntil(deadline); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return checker, inj, conn
}

// TestFlappingTransferCompletesIntact is the headline robustness check: a
// two-path transfer whose secondary path flaps every 500 ms must still
// deliver every byte exactly once, in order.
func TestFlappingTransferCompletesIntact(t *testing.T) {
	spec := MustParse("flap:path=1,period=500ms,down=150ms,at=250ms")
	checker, inj, _ := runCheckedTransfer(t, spec, 1500<<10, 60*time.Second)
	if inj.Flaps < 3 {
		t.Fatalf("flaps=%d, want several", inj.Flaps)
	}
	if !checker.Complete() {
		t.Fatalf("transfer not intact: %v", checker.Err())
	}
}

// TestInterfaceRemovalReinjectsOntoSurvivor removes the secondary interface
// permanently mid-transfer: the dead subflow's un-DATA-ACKed bytes must be
// reinjected onto the surviving path and the transfer must finish intact.
func TestInterfaceRemovalReinjectsOntoSurvivor(t *testing.T) {
	spec := MustParse("ifdown:path=1,at=400ms")
	checker, inj, conn := runCheckedTransfer(t, spec, 1<<20, 60*time.Second)
	if inj.Removals != 1 || inj.Restores != 0 {
		t.Fatalf("removals=%d restores=%d, want 1/0", inj.Removals, inj.Restores)
	}
	if !checker.Complete() {
		t.Fatalf("transfer not intact after interface loss: %v", checker.Err())
	}
	if conn.Stats().Reinjections == 0 {
		t.Fatal("no reinjections recorded for the dead subflow's data")
	}
	usable := 0
	for _, s := range conn.Subflows() {
		if s.Usable() {
			usable++
		}
	}
	if usable != 1 {
		t.Fatalf("usable subflows=%d after removal, want 1", usable)
	}
}

// arrival is one data segment a wireTap saw: its mapping, its payload and how
// much of the stream the sender had had DATA_ACKed when it arrived.
type arrival struct {
	dataSeq packet.DataSeq
	payload []byte
	acked   uint64
}

// wireTap records every mapped data segment arriving over a path.
type wireTap struct {
	sender *core.Connection
	seen   []arrival
}

func (w *wireTap) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	if dss, ok := seg.MPTCPOption(packet.SubDSS).(*packet.DSSOption); ok && dss.HasMapping && len(seg.Payload) > 0 {
		acked := w.sender.Stats().BytesWritten - uint64(w.sender.SenderMemory())
		w.seen = append(w.seen, arrival{dss.DataSeq, append([]byte(nil), seg.Payload...), acked})
	}
	ctx.Send(dir, seg)
}

// TestDataAckedElsewhereRetransmitsOriginalBytes pins why a subflow's chunks
// hold their blocks of the connection's send queue: the initial subflow's
// path goes dark, its data is reinjected on the second subflow and DATA_ACKed
// there, and when the path comes back the initial subflow still retransmits
// that data (its own sequence space needs it). Those bytes come from blocks
// the DATA_ACK has passed, so every copy seen on the wire must be the
// original pattern — under -tags poolcheck a prematurely recycled block would
// be poison — and the stream must arrive exactly once.
func TestDataAckedElsewhereRetransmitsOriginalBytes(t *testing.T) {
	s := sim.New(5)
	n := netem.Build(s,
		netem.Symmetric("a", netem.Mbps(10), 10*time.Millisecond, 1<<20, 0),
		netem.Symmetric("b", netem.Mbps(10), 10*time.Millisecond, 1<<20, 0))
	cliMgr, srvMgr := core.NewManager(n.Client), core.NewManager(n.Server)
	const total = 2 << 20
	checker := NewChecker(77, total)
	tap := &wireTap{}
	n.Path(0).AddBox(tap)

	cfg := core.DefaultConfig()
	cfg.RecvBufBytes = 128 << 10
	var server *core.Connection
	if _, err := srvMgr.Listen(80, cfg, func(c *core.Connection) {
		server = c
		buf := make([]byte, 16<<10)
		c.OnReadable = func() {
			for r := c.ReadInto(buf); r > 0; r = c.ReadInto(buf) {
				checker.Feed(buf[:r])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cliMgr.Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tap.sender = conn
	buf := make([]byte, 32<<10)
	sent := 0
	write := func() {
		for sent < total {
			k := min(len(buf), total-sent)
			checker.Fill(buf[:k], uint64(sent))
			w := conn.Write(buf[:k])
			if w == 0 {
				return
			}
			sent += w
		}
		conn.Close()
	}
	conn.OnEstablished, conn.OnWritable = write, write

	Apply(s, MustParse("down:path=0,at=300ms,dur=1s"), n.Paths, cliMgr, 1, 0)
	if err := s.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !checker.Complete() {
		t.Fatalf("transfer not intact: %v", checker.Err())
	}
	if conn.Stats().Reinjections == 0 {
		t.Fatal("nothing was reinjected: the scenario did not happen")
	}
	if server.Stats().ChecksumFailures != 0 {
		t.Fatalf("%d DSS checksum failures", server.Stats().ChecksumFailures)
	}
	// The first mapping (data offset 0) goes out on the initial subflow, so
	// the lowest data sequence number seen is the stream's first.
	base := tap.seen[0].dataSeq
	for _, a := range tap.seen {
		base = min(base, a.dataSeq)
	}
	late := 0
	for _, a := range tap.seen {
		off := uint64(a.dataSeq - base)
		for i, b := range a.payload {
			if want := PatternByte(checker.Seed, off+uint64(i)); b != want {
				t.Fatalf("byte %d of the stream crossed path a as %#x, want %#x", off+uint64(i), b, want)
			}
		}
		if a.acked >= off+uint64(len(a.payload)) {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no segment crossed path a after its bytes had been DATA_ACKed")
	}
}
