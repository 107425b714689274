package fleet

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/trace"
)

func chaosRow(t *testing.T, spec ChaosSpec) []string {
	t.Helper()
	res, err := RunChaos(spec)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	table := res.Tables[0]
	row := table.Rows[len(table.Rows)-1] // the "all" row
	if row[0] != "all" {
		t.Fatalf("expected trailing all row, got %v", row)
	}
	return row
}

// column indices in the chaos table.
const (
	colMembers = 1
	colOK      = 2
	colFB      = 3
	colStalled = 4
	colStallEp = 5
	colFailed  = 6
	colIntact  = 7
	colIfdown  = 11
	colIfup    = 12
)

func TestChaosBaseline(t *testing.T) {
	row := chaosRow(t, ChaosSpec{
		Common:        Common{Seed: 7, Quick: true},
		Members:       4,
		TransferBytes: 96 << 10,
	})
	if row[colOK] != "4" || row[colStalled] != "0" || row[colFailed] != "0" || row[colIntact] != "4" {
		t.Fatalf("baseline members should all complete intact: %v", row)
	}
}

// TestChaosMatrix runs every adversary preset against every fault preset and
// asserts the chaos invariant: each member either completes intact (ok or
// fallback) — never stalls, never fails, never corrupts the stream.
func TestChaosMatrix(t *testing.T) {
	for _, adv := range middlebox.AdversaryPresetNames() {
		for _, fault := range faults.PresetNames() {
			adv, fault := adv, fault
			t.Run(adv+"/"+fault, func(t *testing.T) {
				t.Parallel()
				row := chaosRow(t, ChaosSpec{
					Common:        Common{Seed: 11, Quick: true},
					Members:       2,
					TransferBytes: 64 << 10,
					Faults:        faults.MustParse(fault),
					Adversary:     adv,
				})
				if row[colStalled] != "0" || row[colFailed] != "0" {
					t.Errorf("adversary=%s faults=%s: stalls/failures in %v", adv, fault, row)
				}
				if row[colIntact] != row[colMembers] {
					t.Errorf("adversary=%s faults=%s: stream corruption: %v", adv, fault, row)
				}
				// Handshake strippers must produce clean fallbacks, not deaths.
				if adv == "strip-syn" || adv == "dpi" {
					if row[colFB] != row[colMembers] {
						t.Errorf("adversary=%s should drive every member to fallback: %v", adv, row)
					}
				}
			})
		}
	}
}

// TestChaosWorkerDeterminism asserts the merged result is byte-identical at
// 1 and 4 workers: schedules and payloads depend only on (seed, member index).
func TestChaosWorkerDeterminism(t *testing.T) {
	spec := ChaosSpec{
		Common:        Common{Seed: 23, Shards: 3, Quick: true},
		Members:       6,
		TransferBytes: 64 << 10,
		Faults:        faults.MustParse("flap500"),
		Adversary:     "rst",
	}
	spec.Workers = 1
	r1, err := RunChaos(spec)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	spec.Workers = 4
	r4, err := RunChaos(spec)
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	b1, _ := json.Marshal(r1)
	b4, _ := json.Marshal(r4)
	if string(b1) != string(b4) {
		t.Fatalf("results differ across worker counts:\n1: %s\n4: %s", b1, b4)
	}
}

// TestChaosIfdownSendsRemoveAddr checks the mobility pipeline end to end: an
// interface removal mid-transfer must reinject the dead subflow's data, the
// transfer must complete intact, and the restoration must be able to re-open
// a subflow.
func TestChaosIfdownSendsRemoveAddr(t *testing.T) {
	row := chaosRow(t, ChaosSpec{
		Common:        Common{Seed: 5, Quick: true, Deadline: 60 * time.Second},
		Members:       2,
		TransferBytes: 2 << 20,
		Faults:        faults.MustParse("ifchurn"),
	})
	if row[colOK] != "2" || row[colIntact] != "2" {
		t.Fatalf("ifchurn transfer should survive intact: %v", row)
	}
	if row[colIfdown] == "0" || row[colIfup] == "0" {
		t.Fatalf("ifchurn should have removed and restored interfaces: %v", row)
	}
}

// TestChaosCaptureWireClean runs a captured chaos transfer and proves the
// wire invariant: the pcap contains every segment (zero codec rejections —
// surfaced as a WIRE VIOLATION note) and no segment carries more than the
// 40-byte TCP option space.
func TestChaosCaptureWireClean(t *testing.T) {
	dir := t.TempDir()
	res, err := RunChaos(ChaosSpec{
		Common:        Common{Seed: 13, Quick: true, Observers: Observers{PcapDir: dir}},
		Members:       2,
		TransferBytes: 96 << 10,
		Faults:        faults.MustParse("flap"),
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	for _, note := range res.Tables[0].Notes {
		if strings.Contains(note, "WIRE VIOLATION") {
			t.Fatalf("capture dropped segments: %s", note)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pcap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no capture files in %s (err=%v)", dir, err)
	}
	records := 0
	for _, f := range files {
		recs, err := trace.ReadPcapFile(f)
		if err != nil {
			t.Fatalf("ReadPcapFile(%s): %v", f, err)
		}
		for _, rec := range recs {
			_, _, tcp, err := rec.TCP()
			if err != nil {
				t.Fatalf("%s: bad record: %v", f, err)
			}
			if optBytes := int(tcp[12]>>4)*4 - 20; optBytes < 0 || optBytes > 40 {
				t.Fatalf("%s: segment with %d option bytes", f, optBytes)
			}
			records++
		}
	}
	if records == 0 {
		t.Fatal("capture files contain no records")
	}
}

func TestChaosUnknownAdversary(t *testing.T) {
	_, err := RunChaos(ChaosSpec{Common: Common{Seed: 1}, Members: 1, Adversary: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown adversary") {
		t.Fatalf("expected unknown-adversary error, got %v", err)
	}
}

// TestChaosMemberGeneratesEachByteOnce drives one member whose send buffer
// (16 KiB) is far smaller than its transfer: every OnWritable has room for a
// segment or two, and pump must generate just that, not a buffer-full that
// Write then mostly turns away. Generated bytes are counted from outside:
// before each pump the buffer is poisoned with the complement of what a fill
// at the current offset would store, so every byte pump generates shows.
func TestChaosMemberGeneratesEachByteOnce(t *testing.T) {
	const seed, total = 5, 256 << 10
	s := sim.New(3)
	n := netem.Build(s, netem.WiFi3GSpec()...)
	cfg := chaosConnConfig()
	cfg.SendBufBytes = 16 << 10
	spec := ChaosSpec{TransferBytes: total}
	m := &chaosMember{
		spec:    &spec,
		checker: faults.NewChecker(seed, total),
		buf:     sim.Local[chaosScratch](s)[:],
		onDone:  func() {},
	}
	if _, err := core.NewManager(n.Server).Listen(80, cfg, func(c *core.Connection) {
		m.server = c
		c.OnReadable = m.drain
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := core.NewManager(n.Client).Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.client = conn

	generated, pumps := 0, 0
	poison := make([]byte, len(m.buf))
	countedPump := func() {
		for i := range poison {
			poison[i] = ^faults.PatternByte(seed, m.sent+uint64(i))
		}
		copy(m.buf, poison)
		m.pump()
		pumps++
		for i, b := range m.buf {
			if b != poison[i] {
				generated++
			}
		}
	}
	conn.OnEstablished = countedPump
	conn.OnWritable = countedPump
	if err := s.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !m.done || !m.checker.Complete() {
		t.Fatalf("transfer did not complete intact: done=%v %v", m.done, m.checker.Err())
	}
	if generated != total {
		t.Fatalf("member generated %d pattern bytes over %d pumps for a %d-byte transfer; each byte must be generated once",
			generated, pumps, total)
	}
}
