package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/trace"
	"mptcpgo/internal/workload"
)

// TestFigureObserversChangeNothing pins the observer contract for figures:
// wire capture and the flight recorder change no result byte, and every
// simulating sweep point writes its own <id>-<NN>.pcap and
// <id>-<NN>-events.jsonl. A point whose capture skipped a segment fails
// (finishPoint), so a run that succeeds had EncodeErrors == 0 everywhere.
func TestFigureObserversChangeNothing(t *testing.T) {
	pcapDir, traceDir := filepath.Join(t.TempDir(), "pcap"), filepath.Join(t.TempDir(), "trace")
	cases := []struct {
		id     string
		points int
		// bonded reports whether point i runs over fig11's bond, which has
		// no netem.Path and therefore no capture.
		bonded func(i int) bool
	}{
		{"rationale", 2, nil},
		{"mbox", len(mboxCases()), nil},
		{"fig8", 8, nil},
		{"fig11", 9, func(i int) bool { return i%3 == 1 }},
	}
	captures, traces := 0, 0
	for _, tc := range cases {
		if tc.id == "fig8" && raceEnabled {
			// 2.3 GB of gigabit capture is minutes under the race detector; the
			// other three cases run the same world code on the same worker pool.
			continue
		}
		opt := Options{Quick: true, Seed: 42}
		plain, err := Run(tc.id, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.PcapDir, opt.Trace = pcapDir, TraceSpec{Dir: traceDir, ProbeInterval: 100 * time.Millisecond}
		observed, err := Run(tc.id, opt)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := plain.JSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := observed.JSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: observers changed the result:\n%s", tc.id, diffHint(a.String(), b.String()))
		}

		for i := 0; i < tc.points; i++ {
			name := pointName(tc.id, i)
			pcap := filepath.Join(pcapDir, name+".pcap")
			if tc.bonded != nil && tc.bonded(i) {
				if _, err := os.Stat(pcap); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s: a bonding point wrote a capture (%v)", name, err)
				}
			} else {
				checkCapture(t, pcap)
				captures++
			}
			if info, err := os.Stat(filepath.Join(traceDir, name+"-events.jsonl")); err != nil || info.Size() == 0 {
				t.Errorf("%s: no flight-recorder events (%v)", name, err)
			}
			traces++
		}
	}
	// Every point above checked its own name; a name two points shared would
	// leave fewer files than points.
	for dir, want := range map[string]int{pcapDir: captures, traceDir: 2 * traces} {
		if files, _ := os.ReadDir(dir); len(files) != want {
			t.Errorf("%s holds %d files, want %d: two points wrote the same name", filepath.Base(dir), len(files), want)
		}
	}
}

// checkCapture decodes every record of a capture and verifies its TCP
// checksum.
func checkCapture(t *testing.T, path string) {
	t.Helper()
	recs, err := trace.ReadPcapFile(path)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s is empty", filepath.Base(path))
	}
	for j, rec := range recs {
		src, dst, tcp, err := rec.TCP()
		if err != nil {
			t.Fatalf("%s record %d: %v", filepath.Base(path), j, err)
		}
		seg, err := packet.Decode(src, dst, tcp)
		if err != nil {
			t.Fatalf("%s record %d: decode: %v", filepath.Base(path), j, err)
		}
		if !packet.VerifyTCPChecksum(seg.Src, seg.Dst, tcp) {
			t.Fatalf("%s record %d: bad TCP checksum", filepath.Base(path), j)
		}
		seg.Release()
	}
}

// TestRunBulkCaptureErrorStopsTheWorld: a capture directory that cannot be
// created fails the run with the error, and the run leaves no buffer behind in
// a pool front nobody will flush.
func TestRunBulkCaptureErrorStopsTheWorld(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := pool.Stats().Outstanding()
	_, err := runBulk(BulkOptions{
		Seed:     1,
		Specs:    netem.WiFi3GSpec(),
		Config:   core.DefaultConfig(),
		Duration: time.Second,
	}, Options{PcapDir: filepath.Join(file, "pcap")}, "bulk-00")
	if err == nil || !strings.Contains(err.Error(), "capture") {
		t.Fatalf("err = %v, want the capture's error", err)
	}
	if got := pool.Stats().Outstanding(); got != before {
		t.Fatalf("%d buffers outstanding after the failed run", got-before)
	}
}

// TestClosedFigureWorldIsCollected: once a churn-shaped figure point has
// closed its world (finishPoint), its simulator is garbage, although the
// world's free lists now serve the next one. The witness stands for the
// simulator: only an event pending on it holds the witness. A finalizer on
// the *sim.Simulator itself would never run, since the simulator reaches
// itself through its events and connections, and the runtime does not
// finalize such an object.
func TestClosedFigureWorldIsCollected(t *testing.T) {
	type gcWitness struct{ _ [32]byte }
	freed := make(chan struct{}, 1)
	var fired atomic.Bool
	worldBuilt = func(w *World) {
		wit := &gcWitness{}
		runtime.SetFinalizer(wit, func(*gcWitness) { freed <- struct{}{} })
		w.Sim.Schedule(1000*time.Hour, func() {
			fired.Store(true)
			runtime.KeepAlive(wit)
		})
	}
	defer func() { worldBuilt = nil }()
	// An overloaded open-loop point of fixed 16 KiB flows: some are still in
	// flight when it ends, so the closed world holds live structs.
	pt, err := runOpenLoopPoint(42, workload.FixedSize(16<<10), 1.5, time.Second, time.Second, Options{}, "openloop-gc")
	if err != nil {
		t.Fatal(err)
	}
	if pt.completed == 0 || fired.Load() {
		t.Fatalf("the point completed %d flows (witness fired: %v)", pt.completed, fired.Load())
	}
	t.Logf("%d flows done, %d dropped, %d open", pt.completed, pt.dropped, pt.unfinished)
	for try := 0; try < 50; try++ {
		runtime.GC()
		runtime.Gosched() // the finalizers run on their own goroutine
		select {
		case <-freed:
			return
		default:
		}
	}
	t.Fatal("the closed figure point's simulator was not garbage-collected")
}

// TestRebuiltWorldStartsWarm: a world built after one closed takes over the
// closed world's demux maps and connection lists, emptied. Its hosts answer
// none of the closed world's four-tuples, and its managers track as many
// connections as the closed world's did without growing a list.
func TestRebuiltWorldStartsWarm(t *testing.T) {
	const clients, perClient = 4, 40
	spec := netem.GraphSpec{}
	spec.AddHost("server")
	for i := 0; i < clients; i++ {
		spec.AddLink(netem.LinkSpec{A: fmt.Sprintf("c%d", i), B: "server",
			Config: netem.SymmetricPath(netem.Mbps(100), time.Millisecond, 0, 0)})
	}
	build := func() World {
		w, err := NewWorld(1, spec, "", TraceSpec{}, "warm", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// eachTuple visits the four-tuples of the connections dial opens, on
	// both hosts: the client's ephemeral ports are handed out in order.
	eachTuple := func(w World, visit func(h *netem.Host, local, remote packet.Endpoint)) {
		for _, p := range w.Net.Paths {
			srv := packet.Endpoint{Addr: p.B().Addr(), Port: 80}
			for j := 0; j < perClient; j++ {
				cli := packet.Endpoint{Addr: p.A().Addr(), Port: uint16(40001 + j)}
				visit(p.A().Host(), cli, srv)
				visit(p.B().Host(), srv, cli)
			}
		}
	}
	// dial opens perClient connections from each client to the server and
	// runs until all of them are established.
	dial := func(w World) {
		if _, err := w.Managers["server"].Listen(80, core.DefaultConfig(), nil); err != nil {
			t.Fatal(err)
		}
		for _, p := range w.Net.Paths {
			m := w.Managers[p.A().Host().Name()]
			for j := 0; j < perClient; j++ {
				if _, err := m.Dial(p.A(), packet.Endpoint{Addr: p.B().Addr(), Port: 80}, core.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Sim.RunUntil(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	tracked := func(w World) (lens, caps []int) {
		for _, h := range w.Net.Hosts {
			conns := w.Managers[h.Name()].Connections()
			lens, caps = append(lens, len(conns)), append(caps, cap(conns))
		}
		return lens, caps
	}

	first := build()
	dial(first)
	eachTuple(first, func(h *netem.Host, local, remote packet.Endpoint) {
		if h.Handler(local, remote) == nil {
			t.Fatalf("%s holds no handler for %v-%v after the dials", h.Name(), local, remote)
		}
	})
	held, _ := tracked(first)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := build()
	defer second.Close()
	eachTuple(second, func(h *netem.Host, local, remote packet.Endpoint) {
		if got := h.Handler(local, remote); got != nil {
			t.Fatalf("%s of the rebuilt world answers %v-%v with the closed world's %T", h.Name(), local, remote, got)
		}
	})
	_, before := tracked(second)
	dial(second)
	lens, after := tracked(second)
	for i, h := range second.Net.Hosts {
		if lens[i] != held[i] {
			t.Fatalf("%s tracks %d connections; the closed world's tracked %d", h.Name(), lens[i], held[i])
		}
		if before[i] < held[i] || after[i] != before[i] {
			t.Fatalf("%s's connection list held %d before the dials and %d after, for %d connections: it grew",
				h.Name(), before[i], after[i], held[i])
		}
	}
}
