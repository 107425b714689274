package tcp

import (
	"bytes"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// rtoHarness establishes one connection over a fresh single-path network and
// keeps the client's send buffer full, so a path outage always leaves unacked
// data for the RTO machinery to chew on.
func rtoHarness(t *testing.T, cfg Config) (*netem.Network, *Endpoint) {
	t.Helper()
	s := sim.New(1)
	link := netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 64 << 10}
	n := netem.Build(s, netem.PathSpec{Name: "p0", Config: netem.PathConfig{AB: link, BA: link}})

	_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
		ep.OnReadable = func() {
			for len(ep.Read(64<<10)) > 0 {
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pump := func() {
		for client.Write(bytes.Repeat([]byte{0xA5}, 8<<10)) > 0 {
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	return n, client
}

// TestMaxRTORetriesTearsDown pins the recovery-hardening contract: after
// MaxRTORetries consecutive timeouts without an intervening ACK the endpoint
// declares the path dead and tears down with ErrTimeout, instead of backing
// off forever on a black-holed link.
func TestMaxRTORetriesTearsDown(t *testing.T) {
	cfg := Config{MaxRTORetries: 3}
	n, client := rtoHarness(t, cfg)

	n.Sim.ScheduleAt(time.Second, func() { n.Path(0).SetDown(true) })
	if err := n.Sim.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if client.State() != StateClosed || client.Err() != ErrTimeout {
		t.Fatalf("state=%v err=%v, want closed with ErrTimeout", client.State(), client.Err())
	}
	// 3 retries tripped the limit; the 4th timeout tears down before
	// retransmitting, so the counter never runs past MaxRTORetries+1.
	if got := client.Stats().Timeouts; got < uint64(cfg.MaxRTORetries) || got > uint64(cfg.MaxRTORetries)+1 {
		t.Fatalf("timeouts=%d, want ~%d", got, cfg.MaxRTORetries)
	}
}

// TestRTOBackoffCapsAndResets checks the two safety properties of the
// exponential backoff: the effective RTO stops at the 60 s cap however many
// timeouts accumulate, and the first genuine ACK after recovery resets the
// backoff to zero. The outage is long enough for the doubling to pass the cap
// (about ten timeouts from a 200 ms RTO), which costs only simulated time.
func TestRTOBackoffCapsAndResets(t *testing.T) {
	cfg := Config{MaxRTORetries: -1} // unlimited retries
	n, client := rtoHarness(t, cfg)

	n.Sim.ScheduleAt(time.Second, func() { n.Path(0).SetDown(true) })
	n.Sim.ScheduleAt(150*time.Second, func() { n.Path(0).SetDown(false) })

	maxSeen := time.Duration(0)
	probe := func() {}
	probe = func() {
		if rto := client.RTO(); rto > maxSeen {
			maxSeen = rto
		}
		if n.Sim.Now() < 149*time.Second {
			n.Sim.Schedule(500*time.Millisecond, probe)
		}
	}
	n.Sim.ScheduleAt(2*time.Second, probe)

	if err := n.Sim.RunUntil(240 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if client.Stats().Timeouts == 0 {
		t.Fatal("outage produced no RTOs")
	}
	if maxSeen != maxRTO {
		t.Fatalf("backed-off RTO peaked at %v, want the %v cap", maxSeen, maxRTO)
	}
	// The link is back and traffic flows again: the first ACK advance must
	// have cleared the backoff.
	if client.State() != StateEstablished {
		t.Fatalf("connection did not survive the outage: state=%v err=%v", client.State(), client.Err())
	}
	if client.rtoBackoff != 0 {
		t.Fatalf("rtoBackoff=%d after recovery, want 0", client.rtoBackoff)
	}
}

// TestTimeoutRepairsEveryHole: a window loses three segments above SACKed
// data, and fast recovery's repairs of all three are lost too, so the
// retransmission timer fires with three holes open. The timeout enters the
// same SACK-scoreboard recovery fast retransmit does: every chunk of the
// window the peer has not SACKed counts as lost, and the window slow-starts
// through the repairs from 1 MSS. One timeout repairs all three holes, and
// after it nothing else is sent again: every other chunk is SACKed by then.
// (Fast recovery, earlier, also resent the last segment, still in flight and
// not yet SACKed when its turn came.)
func TestTimeoutRepairsEveryHole(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 64 << 10})
	const segs = 10 // the initial window
	holes := map[int]bool{1: true, 4: true, 7: true}
	// Transmissions per segment, by index: all of them, and those after the
	// timeout.
	sent, afterRTO := make([]int, segs), make([]int, segs)
	var isn packet.SeqNum
	var client *Endpoint
	n.Path(0).AddBox(scriptBox(func(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) {
		if dir == netem.AtoB && seg.Flags.Has(packet.FlagSYN) {
			isn = seg.Seq
		}
		if dir == netem.AtoB && len(seg.Payload) > 0 {
			i := int(seg.Seq.DiffFrom(isn.Add(1))) / len(seg.Payload)
			if client.Stats().Timeouts > 0 {
				afterRTO[i]++
			}
			if sent[i]++; holes[i] && sent[i] <= 2 {
				seg.Release() // the first transmission and fast recovery's repair
				return
			}
		}
		ctx.Send(dir, seg)
	}))

	received := 0
	_, err := Listen(n.Server, 80, Config{}, func(ep *Endpoint, _ *packet.Segment) {
		ep.OnReadable = func() {
			for data := ep.Read(64 << 10); len(data) > 0; data = ep.Read(64 << 10) {
				received += len(data)
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	client, err = Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, Config{}, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	total := segs * client.EffectiveMSS()
	client.OnEstablished = func() { client.Write(make([]byte, total)) }
	if err := n.Sim.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}

	st := client.Stats()
	if received != total || client.BytesInFlight() != 0 {
		t.Fatalf("received %d of %d bytes, %d still in flight", received, total, client.BytesInFlight())
	}
	if st.FastRetransmits != 1 || st.Timeouts != 1 {
		t.Fatalf("%d fast retransmits and %d timeouts, want 1 and 1", st.FastRetransmits, st.Timeouts)
	}
	for i := range sent {
		if holes[i] && (sent[i] != 3 || afterRTO[i] != 1) {
			t.Errorf("hole %d sent %d times, %d after the timeout; want 3 (lost, lost again in fast recovery, repaired) and 1", i, sent[i], afterRTO[i])
		}
		if !holes[i] && afterRTO[i] != 0 {
			t.Errorf("segment %d, SACKed before the timeout, was sent %d more times after it", i, afterRTO[i])
		}
	}
	if client.inRecovery {
		t.Error("the recovery episode is still open after everything was acknowledged")
	}
}

// TestSYNTimeoutLeavesNoRecoveryOpen: a timeout on the SYN, or on the
// SYN/ACK, opens a recovery episode like any other timeout; the handshake's
// completion closes it, so the established endpoint starts its data in slow
// start, not in recovery.
func TestSYNTimeoutLeavesNoRecoveryOpen(t *testing.T) {
	for _, dir := range []netem.Direction{netem.AtoB, netem.BtoA} {
		t.Run(dir.String(), func(t *testing.T) {
			n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond, QueueBytes: 64 << 10})
			dropped := false
			n.Path(0).AddBox(scriptBox(func(ctx netem.BoxContext, d netem.Direction, seg *packet.Segment) {
				if d == dir && seg.Flags.Has(packet.FlagSYN) && !dropped {
					dropped = true
					seg.Release()
					return
				}
				ctx.Send(d, seg)
			}))
			var server *Endpoint
			_, err := Listen(n.Server, 80, Config{}, func(ep *Endpoint, _ *packet.Segment) { server = ep })
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, Config{}, nil)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			if err := n.Sim.RunUntil(5 * time.Second); err != nil {
				t.Fatalf("sim: %v", err)
			}
			if !dropped || server == nil {
				t.Fatal("no handshake segment was dropped, or no connection was accepted")
			}
			timeouts := 0
			for _, e := range []*Endpoint{client, server} {
				timeouts += int(e.Stats().Timeouts)
				if e.State() != StateEstablished || e.inRecovery {
					t.Errorf("%v: in recovery=%v after the handshake", e, e.inRecovery)
				}
			}
			if timeouts == 0 {
				t.Error("the lost handshake segment cost no timeout")
			}
		})
	}
}
