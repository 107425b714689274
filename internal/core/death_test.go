package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/tcp"
)

// parallelPaths returns n identical 100 Mbps paths: the client opens one
// subflow over each.
func parallelPaths(n int) []netem.PathSpec {
	specs := make([]netem.PathSpec, n)
	for i := range specs {
		specs[i] = netem.Symmetric(fmt.Sprintf("p%d", i), netem.Mbps(100), 5*time.Millisecond, 256<<10, 0)
	}
	return specs
}

// midTransfer starts a 64 MiB upload over n parallel paths, calls act on the
// client connection at 1 s, when every path carries a subflow and the upload
// is far from done, and runs on to 2 s. It returns the endpoints the client's
// subflows had when act ran, in subflow order, and the transfer's result.
func midTransfer(t *testing.T, n int, act func(c *Connection)) ([]*tcp.Endpoint, transferResult) {
	t.Helper()
	h := newHarness(t, 11, parallelPaths(n))
	var eps []*tcp.Endpoint
	h.net.Sim.Schedule(time.Second, func() {
		c := h.clientC
		for _, s := range c.Subflows() {
			eps = append(eps, s.ep)
		}
		if len(eps) != n {
			t.Errorf("%d paths carry %d subflows at 1 s, want one each", n, len(eps))
		}
		act(c)
	})
	cfg := DefaultConfig()
	res := h.runBulkTransfer(cfg, cfg, 64<<20, 2*time.Second)
	if res.received == 0 || res.received >= 64<<20 {
		t.Fatalf("%d paths: %d bytes received, want the upload cut mid-transfer", n, res.received)
	}
	return eps, res
}

// TestAbortResetsEverySubflow: Abort resets every subflow, however many
// there are, and the connection reports ErrAborted through Err and OnClosed.
// A reset closes each endpoint and shrinks the subflow list while the
// connection walks it, so a loop over the live list skipped every other
// subflow, and the last subflow's close finished the connection as a clean
// close before Abort's own error could. enterFallback resets all subflows
// but the one it keeps, through the same path.
func TestAbortResetsEverySubflow(t *testing.T) {
	for n := 1; n <= 3; n++ {
		eps, res := midTransfer(t, n, (*Connection).Abort)
		if err := res.clientConn.Err(); !errors.Is(err, ErrAborted) {
			t.Errorf("%d subflows: Err() = %v after Abort, want %v", n, err, ErrAborted)
		}
		if !errors.Is(res.clientError, ErrAborted) {
			t.Errorf("%d subflows: OnClosed reported %v after Abort, want %v", n, res.clientError, ErrAborted)
		}
		for i, ep := range eps {
			if ep.State() != tcp.StateClosed {
				t.Errorf("%d subflows: endpoint %d is %v after Abort, want CLOSED", n, i, ep.State())
			}
		}
	}

	midTransfer(t, 3, func(c *Connection) {
		keep := c.Subflows()[2]
		eps := []*tcp.Endpoint{c.Subflows()[0].ep, c.Subflows()[1].ep}
		c.enterFallback("test", keep)
		for i, ep := range eps {
			if ep.State() != tcp.StateClosed {
				t.Errorf("fallback keeping subflow 2 of 3: endpoint %d is %v, want CLOSED", i, ep.State())
			}
		}
		if got := c.Subflows(); len(got) != 1 || got[0] != keep {
			t.Errorf("fallback keeping subflow 2 of 3 left %d subflows, want the kept one alone", len(got))
		}
		if keep.ep.State() != tcp.StateEstablished {
			t.Errorf("the kept subflow is %v, want ESTABLISHED", keep.ep.State())
		}
	})
}

// TestFailSubflowRecordsOneDeath: a subflow that MPTCP fails itself dies
// once, so it is recorded once, as an option-level failure (A=0), and its
// data is reinjected so the transfer completes over the survivor.
func TestFailSubflowRecordsOneDeath(t *testing.T) {
	h := newHarness(t, 11, parallelPaths(2))
	rec := probe.NewRecorder(h.net.Sim, 0, 1, 0)
	h.cliMgr.SetProbe(rec, 0)
	var failAt time.Duration
	var deaths uint64
	h.net.Sim.Schedule(300*time.Millisecond, func() {
		sfs := h.clientC.Subflows()
		if len(sfs) != 2 || !sfs[1].Usable() {
			t.Errorf("want two usable subflows at 300 ms, have %d", len(sfs))
			return
		}
		before := rec.Counters(0)[probe.CtrSubflowDeaths]
		failAt = h.net.Sim.Now()
		sfs[1].failSubflow()
		deaths = rec.Counters(0)[probe.CtrSubflowDeaths] - before
	})
	cfg := DefaultConfig()
	const total = 8 << 20
	res := h.runBulkTransfer(cfg, cfg, total, 10*time.Second)
	if res.received != total || res.clientError != nil {
		t.Fatalf("received %d of %d bytes, client error %v", res.received, total, res.clientError)
	}
	var failed, closed int
	for _, e := range rec.AppendEvents(nil, 0) {
		if e.At != failAt {
			continue
		}
		switch e.Kind {
		case probe.KindSubflowFailed:
			failed++
			if e.Subflow != 1 || e.A != 0 {
				t.Errorf("subflow_failed for subflow %d with A=%d, want subflow 1, A=0", e.Subflow, e.A)
			}
		case probe.KindSubflowClosed:
			closed++
		}
	}
	if failed != 1 || closed != 0 || deaths != 1 {
		t.Fatalf("one failed subflow recorded %d subflow_failed and %d subflow_closed events and counted %d deaths, want 1, 0 and 1",
			failed, closed, deaths)
	}
}
