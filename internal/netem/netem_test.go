package netem

import (
	"fmt"
	"runtime"
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
// more than 8 of them in flight and never fully drained: the FIFO threaded
// through the segments holds exactly those in flight, every segment arrives
// in order at its own serialization slot plus the delay, and the event
// accounting stays that of the unbatched schedule (one dequeue and one
// delivery per segment).
func TestLinkFIFOBoundedByInFlight(t *testing.T) {
	const total, window = 10000, 8
	const delay = time.Millisecond
	cfg := LinkConfig{RateBps: Mbps(100), Delay: delay}
	s := sim.New(1)
	var link *Link
	sent, delivered := 0, 0
	var busy time.Duration
	var due []time.Duration // expected arrival of each segment, by ordinal
	send := func() {
		seg := testSegment(1000)
		busy = max(busy, s.Now()) + time.Duration(float64(wireSize(seg)*8)/float64(cfg.RateBps)*float64(time.Second))
		due = append(due, busy+delay)
		link.Send(seg)
		sent++
	}
	link = NewLink(s, "l", cfg, ReceiverFunc(func(seg *packet.Segment) {
		delivered++
		if seg.Ordinal != uint64(delivered) || s.Now() != due[delivered-1] {
			t.Fatalf("delivery %d: segment %d at %v, want its slot %v", delivered, seg.Ordinal, s.Now(), due[delivered-1])
		}
		if seg.Hop != (packet.Hop{}) {
			t.Fatalf("segment %d delivered with hop state %+v", seg.Ordinal, seg.Hop)
		}
		held := 0
		for e := link.head; e != nil; e = e.Hop.Next {
			held++
		}
		if held != sent-delivered {
			t.Fatalf("after delivery %d the FIFO holds %d segments, %d are in flight", delivered, held, sent-delivered)
		}
		if sent < total {
			send()
		}
	}))
	for sent < window {
		send()
	}
	_ = s.Run()
	if delivered != total || link.QueueBytes() != 0 || s.Processed != 2*total {
		t.Fatalf("delivered %d of %d, %d bytes still queued, %d events processed (want %d)",
			delivered, total, link.QueueBytes(), s.Processed, 2*total)
	}
	if link.head != nil || link.tail != nil || link.undrained != nil {
		t.Fatal("a drained link still points at a segment")
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
// when it is the injector, answers each ordinary segment by sending one of
// its own before passing the ordinary one on.
type recordingBox struct {
	name   string
	inject *Direction // nil: never injects
	seen   *[]string
}

func (b *recordingBox) Process(ctx BoxContext, dir Direction, seg *packet.Segment) {
	if seg.Src.Port == 9 {
		*b.seen = append(*b.seen, b.name)
	} else if b.inject != nil {
		ctx.Send(*b.inject, &packet.Segment{Src: packet.Endpoint{Port: 9}, Flags: packet.FlagACK})
	}
	ctx.Send(dir, seg)
}

// A segment an element sends starts at the element's position, in either
// direction: only the elements downstream of it along that direction process
// it.
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

// passBox passes every segment straight on.
type passBox struct{}

func (passBox) Process(ctx BoxContext, dir Direction, seg *packet.Segment) { ctx.Send(dir, seg) }

// A warm segment crossing a path with two pass-through elements allocates no
// more than the same crossing with none: handing a segment from element to
// element costs nothing.
func TestBoxChainAllocs(t *testing.T) {
	crossing := func(boxes int) float64 {
		s := sim.New(1)
		n := Build(s, Symmetric("p", Mbps(100), time.Millisecond, 0, 0))
		for i := 0; i < boxes; i++ {
			n.Path(0).AddBox(passBox{})
		}
		delivered := 0
		n.Server.OnUnmatched = func(_ *Interface, seg *packet.Segment) {
			delivered++
			seg.Release()
		}
		src := n.Client.Interfaces()[0]
		const runs = 200
		allocs := testing.AllocsPerRun(runs, func() {
			seg := packet.NewSegment()
			seg.Src = packet.Endpoint{Addr: n.ClientAddr(0), Port: 1}
			seg.Dst = packet.Endpoint{Addr: n.ServerAddr(0), Port: 2}
			seg.Flags = packet.FlagACK
			src.Send(seg)
			_ = s.Run()
		})
		if delivered != runs+1 { // AllocsPerRun warms up with one extra run
			t.Fatalf("%d elements: %d segments delivered, want %d", boxes, delivered, runs+1)
		}
		return allocs
	}
	none, two := crossing(0), crossing(2)
	t.Logf("allocations per crossing: %.1f with no elements, %.1f with two", none, two)
	if two > none {
		t.Fatalf("a crossing through two pass-through elements allocates %.1f, without them %.1f", two, none)
	}
}

// TestLinkBurstDeliveredAtItsSlots queues 40 segments back to back: every
// one arrives in order at its own serialization slot plus the delay, with
// one dequeue and one delivery counted per segment.
func TestLinkBurstDeliveredAtItsSlots(t *testing.T) {
	const total = 40
	const delay = time.Millisecond
	s := sim.New(1)
	var arrivals []time.Duration
	var ordinals []uint64
	link := NewLink(s, "l", LinkConfig{RateBps: Mbps(8), Delay: delay}, ReceiverFunc(func(seg *packet.Segment) {
		arrivals = append(arrivals, s.Now())
		ordinals = append(ordinals, seg.Ordinal)
	}))
	seg := testSegment(1000)
	tx := time.Duration(float64(wireSize(seg)*8) / float64(Mbps(8)) * float64(time.Second))
	link.Send(seg)
	for i := 1; i < total; i++ {
		link.Send(testSegment(1000))
	}
	_ = s.Run()
	if len(arrivals) != total || s.Processed != 2*total {
		t.Fatalf("%d of %d segments delivered, %d events processed (want %d)", len(arrivals), total, s.Processed, 2*total)
	}
	for k, at := range arrivals {
		if want := time.Duration(k+1)*tx + delay; at != want || ordinals[k] != uint64(k+1) {
			t.Fatalf("delivery %d: segment %d at %v, want segment %d at %v", k, ordinals[k], at, k+1, want)
		}
	}
}

// TestWarmLinkBurstAllocatesNothing: a link holds a burst of 64 pooled
// segments in the segments themselves, so sending and delivering them on a
// warm link allocates nothing, and a new link costs the same whether its
// first burst is one segment deep or 64.
func TestWarmLinkBurstAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops segments at random under the race detector")
	}
	const runs = 50
	measure := func(fresh bool, burst int) float64 {
		s := sim.New(1)
		delivered := 0
		recv := Receiver(ReceiverFunc(func(seg *packet.Segment) {
			delivered++
			seg.Release()
		}))
		cfg := LinkConfig{RateBps: Gbps(10), Delay: 100 * time.Microsecond}
		link := NewLink(s, "l", cfg, recv)
		allocs := testing.AllocsPerRun(runs, func() {
			if fresh {
				link = NewLink(s, "l", cfg, recv)
			}
			for i := 0; i < burst; i++ {
				seg := packet.NewSegment()
				seg.Flags = packet.FlagACK
				seg.Seq = packet.SeqNum(i)
				link.Send(seg)
			}
			_ = s.Run()
		})
		if delivered != (runs+1)*burst { // AllocsPerRun warms up with one extra run
			t.Fatalf("%d segments delivered, want %d", delivered, (runs+1)*burst)
		}
		return allocs
	}
	warm, one, deep := measure(false, 64), measure(true, 1), measure(true, 64)
	t.Logf("allocations per burst: %.1f on a warm link; on a new link %.1f for 1 segment, %.1f for 64", warm, one, deep)
	if warm != 0 {
		t.Fatalf("a warm link's burst of 64 segments allocates %.1f objects, want 0", warm)
	}
	if deep > one {
		t.Fatalf("a new link allocates %.1f objects for a 64-segment burst, %.1f for one segment", deep, one)
	}
}

// TestSendOfHeldSegmentPanics: a segment a link still holds is threaded
// into that link's FIFO, so sending it again, on the same link or another,
// panics instead of cross-wiring two queues.
func TestSendOfHeldSegmentPanics(t *testing.T) {
	s := sim.New(1)
	sink := ReceiverFunc(func(*packet.Segment) {})
	a := NewLink(s, "a", LinkConfig{RateBps: Mbps(8), Delay: time.Millisecond}, sink)
	b := NewLink(s, "b", LinkConfig{RateBps: Mbps(8), Delay: time.Millisecond}, sink)
	for _, second := range []*Link{a, b} {
		seg := testSegment(100)
		a.Send(seg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a held segment sent again on %s did not panic", second.Name())
				}
			}()
			second.Send(seg)
		}()
		_ = s.Run()
	}
}

// TestSegmentCrossesTwoLinks: a segment delivered by link A and sent on by
// link B arrives at B's serialization slot, the shape of a path with more
// than one hop. Neither link leaves its state on the segment.
func TestSegmentCrossesTwoLinks(t *testing.T) {
	const delayA, delayB = time.Millisecond, 3 * time.Millisecond
	s := sim.New(1)
	var atA, atB time.Duration
	var hopAtB packet.Hop
	b := NewLink(s, "b", LinkConfig{RateBps: Mbps(2), Delay: delayB}, ReceiverFunc(func(seg *packet.Segment) {
		atB, hopAtB = s.Now(), seg.Hop
	}))
	a := NewLink(s, "a", LinkConfig{RateBps: Mbps(8), Delay: delayA}, ReceiverFunc(func(seg *packet.Segment) {
		atA = s.Now()
		b.Send(seg)
	}))
	seg := testSegment(1000)
	size := wireSize(seg)
	tx := func(rate int64) time.Duration {
		return time.Duration(float64(size*8) / float64(rate) * float64(time.Second))
	}
	a.Send(seg)
	_ = s.Run()
	if want := tx(Mbps(8)) + delayA; atA != want {
		t.Fatalf("link A delivered at %v, want %v", atA, want)
	}
	if want := atA + tx(Mbps(2)) + delayB; atB != want {
		t.Fatalf("link B delivered at %v, want %v", atB, want)
	}
	if hopAtB != (packet.Hop{}) || seg.Hop != (packet.Hop{}) {
		t.Fatalf("hop state left on the segment: %+v at B's delivery, %+v after", hopAtB, seg.Hop)
	}
	if s.Processed != 4 || a.Stats().DeliveredBytes != uint64(size) || b.Stats().DeliveredBytes != uint64(size) {
		t.Fatalf("%d events processed (want 4), A delivered %d B, B %d B (want %d each)",
			s.Processed, a.Stats().DeliveredBytes, b.Stats().DeliveredBytes, size)
	}
}

// TestUnmatchedDataAnsweredWithoutAllocating: a warm host answers a data
// segment for a four-tuple with no socket with a RST from the segment pool,
// so neither the answer nor its trip back allocates.
func TestUnmatchedDataAnsweredWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops segments at random under the race detector")
	}
	s := sim.New(1)
	n := Build(s, Symmetric("p", Mbps(100), time.Millisecond, 0, 0))
	rsts := 0
	n.Client.OnUnmatched = func(_ *Interface, seg *packet.Segment) {
		if seg.Flags == packet.FlagRST|packet.FlagACK && seg.Seq == 7000 && seg.Ack == 9100 {
			rsts++
		}
		seg.Release()
	}
	src := n.Client.Interfaces()[0]
	payload := make([]byte, 100)
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		seg := packet.NewSegment()
		seg.Src = packet.Endpoint{Addr: n.ClientAddr(0), Port: 40001}
		seg.Dst = packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}
		seg.Seq, seg.Ack = 9000, 7000
		seg.Flags = packet.FlagPSH | packet.FlagACK
		seg.AppendTimestamps(1, 2)
		seg.Payload = payload
		src.Send(seg)
		_ = s.Run()
	})
	if rsts != runs+1 { // AllocsPerRun warms up with one extra run
		t.Fatalf("%d RSTs came back for %d data segments", rsts, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("answering an unmatched data segment allocates %.1f objects, want 0", allocs)
	}
}

// starSpec is a server and clients client hosts, each on its own link.
func starSpec(clients int) GraphSpec {
	g := GraphSpec{}
	g.AddHost("server")
	for i := 0; i < clients; i++ {
		g.AddLink(LinkSpec{Name: fmt.Sprintf("access%d", i), A: fmt.Sprintf("c%d", i), B: "server",
			Config: SymmetricPath(Mbps(100), time.Millisecond, 0, 0)})
	}
	return g
}

// mallocsOf returns how many heap objects f allocates, its first call
// included (testing.AllocsPerRun's warm-up call would hide a table that
// grows once).
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBuildGraphAllocatesPerGraph: a graph is built from a handful of
// slabs, so on a simulator whose demux maps are warm a 256-client star
// costs as many heap objects as a 16-client one, but for the simulator's
// settler list, which grows by doubling as the links register (four more
// doublings from 32 links to 512); and a path's links are named after it
// when asked.
func TestBuildGraphAllocatesPerGraph(t *testing.T) {
	cost := func(clients int) uint64 {
		spec := starSpec(clients)
		s := sim.New(1)
		if _, err := BuildGraph(s, spec); err != nil {
			t.Fatal(err)
		}
		s.Close() // hands its demux maps to the next simulator
		s = sim.New(1)
		defer s.Close()
		var n *Network
		objects := mallocsOf(func() { n, _ = BuildGraph(s, spec) })
		if got := n.PathByName("access3").LinkBA().Name(); got != "access3/ba" {
			t.Fatalf("access3's B-to-A link is named %q", got)
		}
		return objects
	}
	small, large := cost(16), cost(256)
	t.Logf("%d objects for 16 clients, %d for 256", small, large)
	if large > small+4 {
		t.Fatalf("BuildGraph allocates %d objects for a 16-client star and %d for a 256-client one; want at most 4 more", small, large)
	}
}

// TestRebuiltHostsStartWarm: a host's four-tuple map outlives its closed
// simulator emptied, and a rebuilt world's hosts register as many tuples as
// the closed world's held without growing a table.
func TestRebuiltHostsStartWarm(t *testing.T) {
	const perClient = 100
	spec := starSpec(8)
	// tuples registers perClient four-tuples between each client and the
	// server on both hosts, as established connections hold them.
	tuples := func(n *Network, each func(h *Host, local, remote packet.Endpoint)) {
		for _, p := range n.Paths {
			for port := 0; port < perClient; port++ {
				cli := packet.Endpoint{Addr: p.A().Addr(), Port: uint16(40001 + port)}
				srv := packet.Endpoint{Addr: p.B().Addr(), Port: 80}
				each(p.A().Host(), cli, srv)
				each(p.B().Host(), srv, cli)
			}
		}
	}
	handler := refused{}
	register := func(n *Network) func() {
		return func() {
			tuples(n, func(h *Host, local, remote packet.Endpoint) {
				if err := h.Register(local, remote, handler); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	s := sim.New(1)
	first, err := BuildGraph(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := mallocsOf(register(first))
	s.Close()

	s = sim.New(1)
	defer s.Close()
	second, err := BuildGraph(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	tuples(second, func(h *Host, local, remote packet.Endpoint) {
		if got := h.Handler(local, remote); got != nil {
			t.Fatalf("%s of the rebuilt world answers %v-%v with %v, a closed world's handler", h.Name(), local, remote, got)
		}
	})
	warm := mallocsOf(register(second))
	t.Logf("registering %d tuples: %d objects in a fresh world, %d in a rebuilt one", 2*perClient*len(second.Paths), cold, warm)
	if warm != 0 {
		t.Fatalf("the rebuilt world's hosts allocate %d objects to register as many tuples as the closed world held; want 0", warm)
	}
}

// refused handles nothing: it only holds a four-tuple.
type refused struct{}

func (refused) HandleSegment(*Interface, *packet.Segment) {}
