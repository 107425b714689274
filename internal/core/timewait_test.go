package core

import (
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/tcp"
)

// wireTap is a middlebox that keeps the wire encoding of every segment that
// crosses the path, in arrival order.
type wireTap struct{ segs []tappedSegment }

type tappedSegment struct {
	at    time.Duration
	dir   netem.Direction
	flags packet.Flags
	wire  []byte
}

func (b *wireTap) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
	w, err := packet.Encode(seg)
	if err != nil {
		panic(err)
	}
	b.segs = append(b.segs, tappedSegment{ctx.Sim().Now(), dir, seg.Flags, append([]byte(nil), w...)})
	packet.ReleaseWire(w)
	ctx.Send(dir, seg)
}

// gcWitness is an object whose finalizer reports that what held it is gone.
type gcWitness struct{ name string }

// since returns the segments tapped from index i on that travel in dir.
func (b *wireTap) since(i int, dir netem.Direction) []tappedSegment {
	var out []tappedSegment
	for _, s := range b.segs[i:] {
		if s.dir == dir {
			out = append(out, s)
		}
	}
	return out
}

// timeWaitFlow is one short MPTCP request/response flow, run to 1 s of
// sim-time: the client sends 2000 bytes and closes, the server answers with
// 3000 and closes. The FIN exchange is over by 0.5 s, and the two FINs cross,
// so both ends are in TIME_WAIT until about 2.5 s.
type timeWaitFlow struct {
	h   *harness
	tap *wireTap
	// ifc[0] is the client's interface, ifc[1] the server's; tuple[i] is
	// ifc[i]'s end of the flow.
	ifc   [2]*netem.Interface
	tuple [2]packet.Endpoint
	// errs reads both connections' Err; it holds no reference to them.
	errs func() (cli, srv error)
}

// runTimeWaitFlow builds and runs the flow. onConns sees both connections
// once the server has accepted, so a test can watch them without keeping
// them reachable.
func runTimeWaitFlow(t *testing.T, onConns func(cli, srv *Connection)) *timeWaitFlow {
	t.Helper()
	h := newHarness(t, 21, []netem.PathSpec{netem.Symmetric("p", netem.Mbps(10), 10*time.Millisecond, 64<<10, 0)})
	f := &timeWaitFlow{h: h, tap: &wireTap{}}
	h.net.Path(0).AddBox(f.tap)
	f.ifc = [2]*netem.Interface{h.net.Path(0).A(), h.net.Path(0).B()}
	cfg := DefaultConfig()
	var cliErr, srvErr error
	buf := make([]byte, 64<<10)
	if _, err := h.srvMgr.Listen(80, cfg, func(c *Connection) {
		c.OnReadable = func() {
			for c.ReadInto(buf) > 0 {
			}
			if c.EOF() {
				c.Write(make([]byte, 3000))
				c.Close()
			}
		}
		c.OnClosed = func(err error) { srvErr = err }
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := h.cliMgr.Dial(f.ifc[0], packet.Endpoint{Addr: f.ifc[1].Addr(), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli.OnEstablished = func() {
		cli.Write(make([]byte, 2000))
		cli.Close()
		if onConns != nil {
			onConns(cli, h.srvMgr.Connections()[0])
		}
	}
	cli.OnReadable = func() {
		for cli.ReadInto(buf) > 0 {
		}
	}
	cli.OnClosed = func(err error) { cliErr = err }
	f.errs = func() (error, error) { return cliErr, srvErr }
	f.runUntil(t, time.Second)
	// The client's port is the source port of its SYN, the first segment.
	syn := f.tap.segs[0].wire
	f.tuple = [2]packet.Endpoint{{Addr: f.ifc[0].Addr(), Port: binary.BigEndian.Uint16(syn[0:2])}, {Addr: f.ifc[1].Addr(), Port: 80}}
	return f
}

func (f *timeWaitFlow) runUntil(t *testing.T, at time.Duration) {
	t.Helper()
	if err := f.h.net.Sim.RunUntil(at); err != nil {
		t.Fatal(err)
	}
}

// handler returns what side i's host demultiplexes the flow's tuple to.
func (f *timeWaitFlow) handler(i int) netem.SegmentHandler {
	return f.ifc[i].Host().Handler(f.tuple[i], f.tuple[1-i])
}

// inject delivers a copy of wire, as side 1-i sent it, to side i at sim-time at.
func (f *timeWaitFlow) inject(t *testing.T, at time.Duration, i int, wire []byte) {
	f.h.net.Sim.ScheduleAt(at, func() {
		seg, err := packet.Decode(f.ifc[1-i].Addr(), f.ifc[i].Addr(), wire)
		if err != nil {
			t.Error(err)
			return
		}
		f.ifc[i].Receive(seg)
	})
}

// TestTimeWaitFreesTheTriplet: once the FIN exchange is over, a finished
// flow's Connection, Subflow and Endpoint are released at both ends, and a
// TIME_WAIT record alone answers for the four-tuple until 2*MSL have passed.
func TestTimeWaitFreesTheTriplet(t *testing.T) {
	// A finalizer on a Connection or an Endpoint would never run: each can
	// reach itself (through its subflows, through its timers), and the
	// runtime does not finalize such an object. So each gets a witness
	// instead, an object only one of its callback fields reaches: the
	// witness's finalizer runs once its owner is garbage.
	freed := make(chan string, 4)
	witness := func(name string) func() {
		w := &gcWitness{name: name}
		runtime.SetFinalizer(w, func(w *gcWitness) { freed <- w.name })
		return func() { runtime.KeepAlive(w) }
	}
	f := runTimeWaitFlow(t, func(cli, srv *Connection) {
		cliW, srvW := witness("client Connection"), witness("server Connection")
		cli.OnSubflowEstablished = func(*Subflow) { cliW() }
		srv.OnSubflowEstablished = func(*Subflow) { srvW() }
		cli.Subflows()[0].Endpoint().OnWritable = witness("client Endpoint")
		srv.Subflows()[0].Endpoint().OnWritable = witness("server Endpoint")
	})
	for i, m := range []*Manager{f.h.cliMgr, f.h.srvMgr} {
		if n := len(m.Connections()); n != 0 {
			t.Errorf("%s manager still tracks %d connections after the FIN exchange", m.Host().Name(), n)
		}
		if n := m.tokens.Len(); n != 0 {
			t.Errorf("%s token table still holds %d tokens", m.Host().Name(), n)
		}
		switch h := f.handler(i).(type) {
		case nil:
			t.Errorf("%s host has nothing registered for the TIME_WAIT tuple", m.Host().Name())
		case *tcp.Endpoint:
			t.Errorf("%s host still demultiplexes the TIME_WAIT tuple to the endpoint (%v)", m.Host().Name(), h)
		}
	}
	if cli, srv := f.errs(); cli != nil || srv != nil {
		t.Errorf("connections closed with %v / %v, want clean closes", cli, srv)
	}
	got := map[string]bool{}
	for try := 0; try < 50 && len(got) < 4; try++ {
		runtime.GC()
		runtime.Gosched() // the finalizers run on their own goroutine
		for drained := false; !drained; {
			select {
			case n := <-freed:
				got[n] = true
			default:
				drained = true
			}
		}
	}
	if len(got) != 4 {
		t.Errorf("after the FIN exchange only %v were garbage-collected; want both ends' Connection and Endpoint", got)
	}

	// 2*MSL after the FIN exchange the tuple is gone, and a late FIN draws
	// the host's RST as for any unknown tuple.
	f.runUntil(t, 2600*time.Millisecond)
	for i := range f.ifc {
		if h := f.handler(i); h != nil {
			t.Errorf("side %d still demultiplexes the tuple to %T after 2*MSL", i, h)
		}
	}
	fins := f.tap.since(0, netem.BtoA)
	var fin []byte
	for _, s := range fins {
		if s.flags.Has(packet.FlagFIN) {
			fin = s.wire
		}
	}
	mark := len(f.tap.segs)
	f.inject(t, 2700*time.Millisecond, 0, fin)
	f.runUntil(t, 2800*time.Millisecond)
	reply := f.tap.since(mark, netem.AtoB)
	if len(reply) != 1 || !reply[0].flags.Has(packet.FlagRST) {
		t.Fatalf("a FIN after 2*MSL drew %d segments (%v), want the host's RST", len(reply), reply)
	}
}

// TestTimeWaitRecordAnswersAsTheEndpointDid holds the TIME_WAIT record to
// the bytes the TIME_WAIT endpoint itself sent before the record replaced it:
// a retransmitted FIN and an old data segment, replayed into each end's
// TIME_WAIT tuple, draw the ACKs below (captured from the endpoint, same
// seed, same injection times), and an in-window RST ends TIME_WAIT early
// without turning a clean close into a reset.
func TestTimeWaitRecordAnswersAsTheEndpointDid(t *testing.T) {
	// The ACK each end sent at 1.0/1.1 s (client) and 1.2/1.3 s (server) of
	// sim-time, in reply to the peer's FIN and then to its first data
	// segment: TCP header, timestamps (the clock, the injected segment's
	// value echoed), and the DSS DATA_ACK.
	want := []string{
		"9c4100506420fd7be2c8e57cb0108000005d0000080a000003e8000001da1e0c20034775bb3f649f40b80101",
		"9c4100506420fd7be2c8e57cb0108000000f0000080a0000044c000001c41e0c20034775bb3f649f40b80101",
		"00509c41e2c8e57c6420fd7bb010800090d20000080a000004b0000001d01e0c2003df4c8d8f264283ba0101",
		"00509c41e2c8e57c6420fd7bb0108000906e0000080a00000514000001d01e0c2003df4c8d8f264283ba0101",
	}
	f := runTimeWaitFlow(t, nil)
	// The last FIN and the first data segment each direction carried.
	var fin, data [2][]byte
	for _, s := range f.tap.segs {
		if s.flags.Has(packet.FlagFIN) {
			fin[s.dir] = s.wire
		}
		if s.flags.Has(packet.FlagPSH) && data[s.dir] == nil {
			data[s.dir] = s.wire
		}
	}
	mark := len(f.tap.segs)
	// Side 0 (the client) is reached by what travels BtoA.
	f.inject(t, 1000*time.Millisecond, 0, fin[netem.BtoA])
	f.inject(t, 1100*time.Millisecond, 0, data[netem.BtoA])
	f.inject(t, 1200*time.Millisecond, 1, fin[netem.AtoB])
	f.inject(t, 1300*time.Millisecond, 1, data[netem.AtoB])
	f.runUntil(t, 1500*time.Millisecond)
	var got []string
	for _, s := range f.tap.segs[mark:] {
		got = append(got, hex.EncodeToString(s.wire))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("TIME_WAIT answered\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An RST at the client's rcvNxt (the ACK field of its last ACK) ends
	// the client's TIME_WAIT; the connection, finished cleanly at the FIN
	// exchange, stays clean.
	rst := &packet.Segment{Src: f.tuple[1], Dst: f.tuple[0], Flags: packet.FlagRST}
	rst.Seq = packet.SeqNum(0xe2c8e57c)
	f.h.net.Sim.ScheduleAt(1600*time.Millisecond, func() { f.ifc[0].Receive(rst) })
	f.runUntil(t, 1700*time.Millisecond)
	if h := f.handler(0); h != nil {
		t.Errorf("the client tuple is still demultiplexed to %T after an in-window RST", h)
	}
	if h := f.handler(1); h == nil {
		t.Error("the RST to the client ended the server's TIME_WAIT too")
	}
	if cli, srv := f.errs(); cli != nil || srv != nil {
		t.Errorf("after an RST reached TIME_WAIT the connections report %v / %v, want nil", cli, srv)
	}
}
