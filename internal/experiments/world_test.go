package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/trace"
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
