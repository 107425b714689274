package capacity

import (
	"math"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

func TestParseSharedLink(t *testing.T) {
	cases := []struct {
		spec string
		want SharedLink
	}{
		{"10mbps", SharedLink{Name: "core", RateBps: 10_000_000, Epoch: 100 * time.Millisecond}},
		{"core:10mbps", SharedLink{Name: "core", RateBps: 10_000_000, Epoch: 100 * time.Millisecond}},
		{"egress:2.5gbps:50ms", SharedLink{Name: "egress", RateBps: 2_500_000_000, Epoch: 50 * time.Millisecond}},
		// A leading token that parses as a rate is the rate: the second field
		// is the epoch, and the name stays the default.
		{"10mbps:250ms", SharedLink{Name: "core", RateBps: 10_000_000, Epoch: 250 * time.Millisecond}},
		{"800000", SharedLink{Name: "core", RateBps: 800_000, Epoch: 100 * time.Millisecond}},
		{"spine:400kbps", SharedLink{Name: "spine", RateBps: 400_000, Epoch: 100 * time.Millisecond}},
		{"uplink:1g:1s", SharedLink{Name: "uplink", RateBps: 1_000_000_000, Epoch: time.Second}},
	}
	for _, tc := range cases {
		got, err := ParseSharedLink(tc.spec)
		if err != nil {
			t.Errorf("ParseSharedLink(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSharedLink(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseSharedLinkRejects(t *testing.T) {
	for _, spec := range []string{
		"",                // no rate
		"a:b:c:d",         // too many fields
		"core:xyz",        // unparseable rate
		"0mbps",           // zero rate
		"-5mbps",          // negative rate
		"core:10mbps:0s",  // epoch below the 1ms floor
		"core:10mbps:abc", // unparseable epoch
		"9999999gbps",     // rate above the sanity ceiling
		"core:10mbps:50ms:x",
	} {
		if l, err := ParseSharedLink(spec); err == nil {
			t.Errorf("ParseSharedLink(%q) = %+v, want error", spec, l)
		}
	}
}

func TestSharedLinkStringRoundTrip(t *testing.T) {
	for _, l := range []SharedLink{
		{Name: "core", RateBps: 10_000_000, Epoch: 100 * time.Millisecond},
		{Name: "egress", RateBps: 2_500_000_000, Epoch: 50 * time.Millisecond},
		{Name: "x", RateBps: 12_345, Epoch: time.Second},
	} {
		back, err := ParseSharedLink(l.String())
		if err != nil {
			t.Fatalf("round trip of %v: %v", l, err)
		}
		if back != l {
			t.Fatalf("round trip of %v came back as %v", l, back)
		}
	}
}

func TestCouplerAllocateDeterministic(t *testing.T) {
	mk := func() *Coupler {
		c, err := NewCoupler([]SharedLink{{Name: "core", RateBps: 12_000_000}}, []float64{2, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	run := func(c *Coupler) [][]int64 {
		// Reports arrive in arbitrary shard order — the ledger is indexed, so
		// order must not matter.
		c.Report(2, []uint64{25_000}, []uint64{25_000}) // 2 Mbps over 100ms
		c.Report(0, []uint64{112_500}, []uint64{100_000})
		c.Report(1, []uint64{112_500}, []uint64{100_000})
		return c.Allocate()
	}
	a, b := run(mk()), run(mk())
	for s := range a {
		for j := range a[s] {
			if a[s][j] != b[s][j] {
				t.Fatalf("allocation differs across identical runs: %v vs %v", a, b)
			}
		}
	}
	var sum int64
	for s := range a {
		sum += a[s][0]
	}
	if sum > 12_000_000 {
		t.Fatalf("allocations %v oversubscribe the 12mbps link", a)
	}
	c := mk()
	run(c)
	if got := len(c.Trace()); got != 1 {
		t.Fatalf("trace has %d records after one epoch, want 1", got)
	}
	rec := c.Trace()[0]
	if rec.OfferedBytes != 250_000 || rec.Epoch != 0 || rec.Link != 0 {
		t.Fatalf("trace record %+v, want epoch 0, link 0, 250000 offered bytes", rec)
	}
}

func TestNewCouplerRejects(t *testing.T) {
	if _, err := NewCoupler(nil, []float64{1}); err == nil {
		t.Error("no links: want error")
	}
	if _, err := NewCoupler([]SharedLink{{Name: "a", RateBps: 1}}, nil); err == nil {
		t.Error("no shards: want error")
	}
	dup := []SharedLink{{Name: "a", RateBps: 1}, {Name: "a", RateBps: 2}}
	if _, err := NewCoupler(dup, []float64{1}); err == nil {
		t.Error("duplicate names: want error")
	}
	mixed := []SharedLink{
		{Name: "a", RateBps: 1, Epoch: 50 * time.Millisecond},
		{Name: "b", RateBps: 1, Epoch: 100 * time.Millisecond},
	}
	if _, err := NewCoupler(mixed, []float64{1}); err == nil {
		t.Error("mixed epochs: want error")
	}
	link := []SharedLink{{Name: "a", RateBps: 1}}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewCoupler(link, []float64{1, w}); err == nil || !strings.Contains(err.Error(), "shard 1 ") {
			t.Errorf("shard weight %v: err = %v, want one naming shard 1", w, err)
		}
	}
}

// FuzzParseSharedLink checks the parser never panics and that every accepted
// spec survives validation and canonical reserialization.
func FuzzParseSharedLink(f *testing.F) {
	for _, seed := range []string{
		"10mbps", "core:10mbps", "egress:2.5gbps:50ms", "10mbps:250ms",
		"800000", "uplink:1g:1s", "spine:400kbps", "", "a:b:c:d", "0mbps",
		"core:10mbps:0s", ":::", "1e3", "-1", "9999999gbps", "x y:5m",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		l, err := ParseSharedLink(spec)
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("ParseSharedLink(%q) accepted invalid link %+v: %v", spec, l, verr)
		}
		back, err := ParseSharedLink(l.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", l.String(), spec, err)
		}
		if back != l {
			t.Fatalf("round trip of %q: %+v -> %+v", spec, l, back)
		}
	})
}

// TestWarmEpochAllocatesNothing: once warm, an epoch of the capacity
// exchange — Meter.Collect, Coupler.Report, Allocate, Meter.Apply — allocates
// nothing. Every allocation step works in its ledger's scratch, and the
// coupler hands back the same [shard][link] slices each time. The members
// offer a load that changes every epoch, so the steps run through max-min,
// the floors and both headroom spreads, not one cached shape. The trace is a
// log that grows by append; the test sizes it up front.
func TestWarmEpochAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops segments at random under the race detector")
	}
	s := sim.New(1)
	path := netem.SymmetricPath(netem.Mbps(100), time.Millisecond, 0, 0)
	spec := netem.GraphSpec{Hosts: []string{"c0", "c1", "srv"}, Links: []netem.LinkSpec{
		{A: "c0", B: "srv", Config: path, SharedAB: "core"},
		{A: "c1", B: "srv", Config: path, SharedAB: "core"},
	}}
	n, err := netem.BuildGraph(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	n.Host("srv").OnUnmatched = func(_ *netem.Interface, seg *packet.Segment) { seg.Release() }
	c, err := NewCoupler([]SharedLink{{Name: "core", RateBps: netem.Mbps(4)}}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(c, n, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.trace = make([]EpochRecord, 0, 256)
	payload := make([]byte, 1000)
	other := []uint64{0}
	epoch := 0
	allocs := c.Initial()
	step := func() {
		m.Apply(allocs[0])
		for i, p := range n.Paths {
			for k := 0; k < (epoch+i)%4*10; k++ {
				seg := packet.NewSegment()
				seg.Src = packet.Endpoint{Addr: p.A().Addr(), Port: 1}
				seg.Dst = packet.Endpoint{Addr: p.B().Addr(), Port: 2}
				seg.Flags = packet.FlagACK
				seg.Payload = payload
				p.A().Send(seg)
			}
		}
		epoch++
		if err := s.RunUntil(time.Duration(epoch) * c.Epoch()); err != nil {
			t.Fatal(err)
		}
		offered, sent := m.Collect()
		c.Report(0, offered, sent)
		other[0] = uint64(epoch%3) * 30_000
		c.Report(1, other, other)
		allocs = c.Allocate()
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("a warm epoch allocates %.1f objects, want 0", avg)
	}
	if len(c.Trace()) != 109 {
		t.Fatalf("%d epochs traced, want 109", len(c.Trace()))
	}
}
