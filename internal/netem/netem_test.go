package netem

import (
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

func testSegment(n int) *packet.Segment {
	return &packet.Segment{
		Src:     packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 1},
		Dst:     packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 2), Port: 2},
		Flags:   packet.FlagACK,
		Payload: make([]byte, n),
	}
}

func TestLinkDelayAndSerialization(t *testing.T) {
	s := sim.New(1)
	var arrival time.Duration
	link := NewLink(s, "l", LinkConfig{RateBps: Mbps(8), Delay: 10 * time.Millisecond}, ReceiverFunc(func(seg *packet.Segment) {
		arrival = s.Now()
	}))
	seg := testSegment(1000)
	size := wireSize(seg)
	link.Send(seg)
	_ = s.Run()
	expected := time.Duration(float64(size*8)/8e6*float64(time.Second)) + 10*time.Millisecond
	diff := arrival - expected
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("arrival %v, expected about %v", arrival, expected)
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	s := sim.New(1)
	delivered := 0
	link := NewLink(s, "l", LinkConfig{RateBps: Kbps(100), Delay: time.Millisecond, QueueBytes: 3000}, ReceiverFunc(func(seg *packet.Segment) {
		delivered++
	}))
	for i := 0; i < 10; i++ {
		link.Send(testSegment(1000))
	}
	_ = s.Run()
	st := link.Stats()
	if st.DroppedQueue == 0 {
		t.Fatal("expected tail drops on a 3000-byte queue")
	}
	if delivered+int(st.DroppedQueue) != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", delivered, st.DroppedQueue)
	}
}

// TestLinkFIFOBoundedByInFlight keeps a link busy for 10 000 segments, never
// more than 8 of them in flight and never fully drained: the burst FIFO must
// stay sized to what is in flight, not to what has passed through, while
// delivery order and the event accounting stay those of the unbatched
// schedule (one dequeue and one delivery per segment).
func TestLinkFIFOBoundedByInFlight(t *testing.T) {
	const total, window = 10000, 8
	s := sim.New(1)
	var link *Link
	sent, delivered := 0, 0
	var lastOrdinal uint64
	link = NewLink(s, "l", LinkConfig{RateBps: Mbps(100), Delay: time.Millisecond}, ReceiverFunc(func(seg *packet.Segment) {
		delivered++
		if seg.Ordinal != lastOrdinal+1 {
			t.Fatalf("segment %d delivered after %d", seg.Ordinal, lastOrdinal)
		}
		lastOrdinal = seg.Ordinal
		if sent < total {
			sent++
			link.Send(testSegment(1000))
		}
	}))
	for ; sent < window; sent++ {
		link.Send(testSegment(1000))
	}
	_ = s.Run()
	if delivered != total || link.QueueBytes() != 0 || s.Processed != 2*total {
		t.Fatalf("delivered %d of %d, %d bytes still queued, %d events processed (want %d)",
			delivered, total, link.QueueBytes(), s.Processed, 2*total)
	}
	if c := cap(link.fifo); c > 128 {
		t.Fatalf("FIFO capacity %d entries after %d segments with at most %d in flight; want <= 128", c, total, window)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	s := sim.New(7)
	delivered := 0
	link := NewLink(s, "l", LinkConfig{LossRate: 0.5}, ReceiverFunc(func(seg *packet.Segment) { delivered++ }))
	for i := 0; i < 1000; i++ {
		link.Send(testSegment(100))
	}
	_ = s.Run()
	if delivered < 350 || delivered > 650 {
		t.Fatalf("with 50%% loss, delivered %d of 1000", delivered)
	}
}

func TestHostDemuxAndRST(t *testing.T) {
	s := sim.New(1)
	n := Build(s, Symmetric("p", Mbps(10), time.Millisecond, 0, 0))
	// A segment to a port nobody listens on must trigger a RST back.
	var gotRST bool
	n.Client.OnUnmatched = func(_ *Interface, seg *packet.Segment) {
		if seg.Flags.Has(packet.FlagRST) {
			gotRST = true
		}
	}
	seg := &packet.Segment{
		Src:   packet.Endpoint{Addr: n.ClientAddr(0), Port: 5555},
		Dst:   packet.Endpoint{Addr: n.ServerAddr(0), Port: 4444},
		Flags: packet.FlagSYN,
	}
	n.Client.Interfaces()[0].Send(seg)
	_ = s.Run()
	if !gotRST {
		t.Fatal("expected a RST for a SYN to a closed port")
	}
}

func TestPathDownDropsTraffic(t *testing.T) {
	s := sim.New(1)
	n := Build(s, Symmetric("p", Mbps(10), time.Millisecond, 0, 0))
	n.Path(0).SetDown(true)
	received := false
	n.Server.OnUnmatched = func(_ *Interface, _ *packet.Segment) { received = true }
	n.Client.Interfaces()[0].Send(testSegment(10))
	_ = s.Run()
	if received {
		t.Fatal("segments must be dropped on a failed path")
	}
}

func TestCPUModelSerializesProcessing(t *testing.T) {
	s := sim.New(1)
	n := Build(s, Symmetric("p", Gbps(1), 0, 0, 0))
	n.Server.CPU = CPUModel{PerPacket: time.Millisecond}
	var lastDelivery time.Duration
	n.Server.OnUnmatched = func(_ *Interface, _ *packet.Segment) { lastDelivery = s.Now() }
	for i := 0; i < 5; i++ {
		n.Client.Interfaces()[0].Send(testSegment(100))
	}
	_ = s.Run()
	if lastDelivery < 5*time.Millisecond {
		t.Fatalf("five packets at 1ms CPU each should take at least 5ms, took %v", lastDelivery)
	}
}

func TestTopologyBuilders(t *testing.T) {
	s := sim.New(1)
	for _, specs := range [][]PathSpec{WiFi3GSpec(), LossyWiFi3GSpec(), AsymGigabitSpec(), TripleGigabitSpec(), DualGigabitSpec(), TenGigSpec(), Capped3GWiFiSpec()} {
		n := Build(sim.New(1), specs...)
		if len(n.Paths) != len(specs) {
			t.Fatalf("expected %d paths, got %d", len(specs), len(n.Paths))
		}
		for i := range specs {
			if n.ClientAddr(i) == n.ServerAddr(i) {
				t.Fatal("client and server addresses must differ")
			}
		}
	}
	_ = s
}

func TestBuildGraphMultiHost(t *testing.T) {
	s := sim.New(1)
	n, err := BuildGraph(s, GraphSpec{
		Hosts: []string{"c0", "c1", "srv"},
		Links: []LinkSpec{
			{Name: "a", A: "c0", B: "srv", Config: SymmetricPath(Mbps(8), time.Millisecond, 0, 0)},
			{A: "c1", B: "srv", Config: SymmetricPath(Mbps(2), time.Millisecond, 0, 0)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Hosts) != 3 || n.Host("srv") == nil || n.Host("c0") == nil {
		t.Fatalf("hosts not built: %v", n.HostNames())
	}
	if n.Client != nil || n.Server != nil {
		t.Fatal("Client/Server aliases must stay nil without hosts named client/server")
	}
	if got := n.Path(1).Name(); got != "path1" {
		t.Fatalf("unnamed link default = %q, want path1", got)
	}
	if len(n.Host("srv").Interfaces()) != 2 {
		t.Fatalf("server should have one interface per link, got %d", len(n.Host("srv").Interfaces()))
	}
	// Address plan: link i is 10.(i>>8).(i&255).{1,2} with A at .1.
	if got := n.Path(1).A().Addr(); got != packet.MakeAddr(10, 0, 1, 1) {
		t.Fatalf("link 1 A-side address = %v", got)
	}
	if p := n.PathByName("a"); p == nil || p.A().Host() != n.Host("c0") || p.B().Host() != n.Host("srv") {
		t.Fatalf("link a does not join c0 to srv: %v", p)
	}
	if peer := n.Path(0).Peer(n.Path(0).A()); peer != n.Path(0).B() {
		t.Fatal("Peer(A) must be B")
	}
	if peer := n.Path(0).Peer(n.Path(1).A()); peer != nil {
		t.Fatal("Peer of a foreign interface must be nil")
	}
}

func TestBuildGraphErrors(t *testing.T) {
	s := sim.New(1)
	cases := []GraphSpec{
		{Hosts: []string{"a", "a"}},
		{Hosts: []string{""}},
		{Hosts: []string{"a"}, Links: []LinkSpec{{A: "a", B: "missing"}}},
		{Hosts: []string{"a"}, Links: []LinkSpec{{A: "missing", B: "a"}}},
		{Hosts: []string{"a", "b"}, Links: []LinkSpec{{A: "a", B: "a"}}},
	}
	for i, spec := range cases {
		if _, err := BuildGraph(s, spec); err == nil {
			t.Errorf("case %d: BuildGraph accepted an invalid spec", i)
		}
	}
}

func TestBuildKeepsTwoHostLayout(t *testing.T) {
	s := sim.New(1)
	n := Build(s, WiFi3GSpec()...)
	if n.Client == nil || n.Server == nil {
		t.Fatal("two-host Build must set the Client/Server aliases")
	}
	if n.Client != n.Host("client") || n.Server != n.Host("server") {
		t.Fatal("aliases must match named hosts")
	}
	// The historical address plan: client 10.0.i.1, server 10.0.i.2.
	for i := range n.Paths {
		if n.ClientAddr(i) != packet.MakeAddr(10, 0, byte(i), 1) || n.ServerAddr(i) != packet.MakeAddr(10, 0, byte(i), 2) {
			t.Fatalf("path %d addresses drifted: %v / %v", i, n.ClientAddr(i), n.ServerAddr(i))
		}
	}
}

func TestBuildGraphAliasesAreNameBased(t *testing.T) {
	s := sim.New(1)
	// Two hosts declared server-first: the aliases must follow the names,
	// not the declaration positions.
	n, err := BuildGraph(s, GraphSpec{
		Hosts: []string{"server", "client0"},
		Links: []LinkSpec{{A: "client0", B: "server", Config: SymmetricPath(Mbps(8), time.Millisecond, 0, 0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Client != nil {
		t.Fatalf("no host is named client, yet Client aliases %q", n.Client.Name())
	}
	if n.Server != n.Host("server") {
		t.Fatal("Server alias must resolve to the host named server")
	}
}

// recordingBox notes every injected segment (marked by port 9) it sees and,
// when it is the injector, answers each ordinary segment by injecting one.
type recordingBox struct {
	name   string
	inject *Direction // nil: never injects
	seen   *[]string
}

func (b *recordingBox) Name() string { return b.name }

func (b *recordingBox) Process(ctx BoxContext, _ Direction, seg *packet.Segment) []*packet.Segment {
	if seg.Src.Port == 9 {
		*b.seen = append(*b.seen, b.name)
	} else if b.inject != nil {
		ctx.Inject(*b.inject, &packet.Segment{Src: packet.Endpoint{Port: 9}, Flags: packet.FlagACK})
	}
	return []*packet.Segment{seg}
}

// An injected segment starts at the injecting element's position: only the
// elements downstream of it along the injection direction process it.
func TestInjectBypassesTraversedElements(t *testing.T) {
	cases := []struct {
		injector  int
		travel    Direction
		inject    Direction
		wantBoxes string
	}{
		{1, AtoB, AtoB, "box2"},
		{1, AtoB, BtoA, "box0"},
		{1, BtoA, BtoA, "box0"},
		{1, BtoA, AtoB, "box2"},
		{0, AtoB, AtoB, "box1 box2"},
		{0, AtoB, BtoA, ""},
		{0, BtoA, BtoA, ""},
		{0, BtoA, AtoB, "box1 box2"},
	}
	for _, tc := range cases {
		s := sim.New(1)
		n := Build(s, Symmetric("p", Mbps(10), time.Millisecond, 0, 0))
		var seen []string
		delivered := map[Direction]int{}
		n.Server.OnUnmatched = func(_ *Interface, seg *packet.Segment) { delivered[AtoB]++ }
		n.Client.OnUnmatched = func(_ *Interface, seg *packet.Segment) { delivered[BtoA]++ }
		for i, name := range []string{"box0", "box1", "box2"} {
			b := &recordingBox{name: name, seen: &seen}
			if i == tc.injector {
				b.inject = &tc.inject
			}
			n.Path(0).AddBox(b)
		}
		src := n.Client
		if tc.travel == BtoA {
			src = n.Server
		}
		src.Interfaces()[0].Send(testSegment(10))
		_ = s.Run()
		if got := strings.Join(seen, " "); got != tc.wantBoxes {
			t.Errorf("box%d injecting %v while processing %v: seen by %q, want %q",
				tc.injector, tc.inject, tc.travel, got, tc.wantBoxes)
		}
		want := map[Direction]int{tc.travel: 1}
		want[tc.inject]++
		if delivered[AtoB] != want[AtoB] || delivered[BtoA] != want[BtoA] {
			t.Errorf("box%d injecting %v while processing %v: delivered %v, want %v",
				tc.injector, tc.inject, tc.travel, delivered, want)
		}
	}
}
