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
