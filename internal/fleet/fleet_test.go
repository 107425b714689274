package fleet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/trace"
)

// encodeJSON renders a result the way the CLI's -format json does, so the
// byte-identity assertions cover exactly what ships.
func encodeJSON(t *testing.T, res *experiments.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testHTTPSpec(workers int) HTTPSpec {
	spec := DefaultHTTPSpec(42, 48, 2, 8<<10)
	spec.Shards = 4
	spec.Workers = workers
	return spec
}

// TestMakeShards pins the partition: balanced contiguous ranges, per-shard
// seeds derived from the root alone, clamping of oversized shard counts.
func TestMakeShards(t *testing.T) {
	shards, err := MakeShards(7, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantLo := []int{0, 4, 7}
	wantHi := []int{4, 7, 10}
	if len(shards) != len(wantLo) {
		t.Fatalf("%d shards, want %d", len(shards), len(wantLo))
	}
	for i, sh := range shards {
		if sh.Lo != wantLo[i] || sh.Hi != wantHi[i] {
			t.Fatalf("shard %d owns [%d,%d), want [%d,%d)", i, sh.Lo, sh.Hi, wantLo[i], wantHi[i])
		}
		if sh.Index != i {
			t.Fatalf("shard %d has Index=%d", i, sh.Index)
		}
	}
	if shards[0].Seed == shards[1].Seed || shards[1].Seed == shards[2].Seed {
		t.Fatalf("shard seeds collide: %v", []uint64{shards[0].Seed, shards[1].Seed, shards[2].Seed})
	}

	again, err := MakeShards(7, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].Seed != shards[i].Seed {
			t.Fatalf("shard %d seed not reproducible", i)
		}
	}

	clamped, err := MakeShards(7, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(clamped) != 3 {
		t.Fatalf("shard count not clamped to members: got %d", len(clamped))
	}
	if _, err := MakeShards(7, 0, 1); err == nil {
		t.Fatal("MakeShards accepted an empty workload")
	}
}

// TestFleetHTTPWorkerInvariance is the engine's core contract: the merged
// JSON is byte-identical whether shards run sequentially under GOMAXPROCS=1
// or in parallel under GOMAXPROCS=4.
func TestFleetHTTPWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	res1, err1 := RunHTTP(testHTTPSpec(1))
	runtime.GOMAXPROCS(4)
	res4, err4 := RunHTTP(testHTTPSpec(4))
	runtime.GOMAXPROCS(prev)
	if err1 != nil {
		t.Fatal(err1)
	}
	if err4 != nil {
		t.Fatal(err4)
	}
	j1, j4 := encodeJSON(t, res1), encodeJSON(t, res4)
	if !bytes.Equal(j1, j4) {
		t.Fatalf("merged JSON differs between 1 worker (GOMAXPROCS=1) and 4 workers (GOMAXPROCS=4):\n--- w1 ---\n%s\n--- w4 ---\n%s", j1, j4)
	}
}

// TestFleetHTTPShardCountDeterminism runs the same workload at several shard
// counts: each count must be run-to-run deterministic, and because every
// client carries its request budget with it, the fleet-wide completion count
// is invariant across partitions.
func TestFleetHTTPShardCountDeterminism(t *testing.T) {
	wantCompleted := 48 * 2
	for _, shards := range []int{1, 2, 5} {
		spec := testHTTPSpec(2)
		spec.Shards = shards
		first, err := RunHTTP(spec)
		if err != nil {
			t.Fatal(err)
		}
		second, err := RunHTTP(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeJSON(t, first), encodeJSON(t, second)) {
			t.Fatalf("shards=%d: two runs at the same seed differ", shards)
		}
		// The "all" row is the last one; completed is column 2.
		table := first.Tables[0]
		last := table.Rows[len(table.Rows)-1]
		if got := last[2]; got != "96" {
			t.Fatalf("shards=%d: fleet completed %s requests, want %d", shards, got, wantCompleted)
		}
	}
}

// TestFleetIncastDeterminism covers the incast scenario: parallel and
// sequential runs merge to the same bytes.
func TestFleetIncastDeterminism(t *testing.T) {
	spec := IncastSpec{Common: Common{Seed: 7, Shards: 3}, Senders: 24, BlockSize: 64 << 10}
	seq := spec
	seq.Workers = 1
	par := spec
	par.Workers = 4
	r1, err := RunIncast(seq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunIncast(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJSON(t, r1), encodeJSON(t, r2)) {
		t.Fatal("incast merged JSON differs between 1 and 4 workers")
	}
}

// TestFleetMixedDeterminism covers the mixed scenario at a small size (it is
// the most event-heavy of the three).
func TestFleetMixedDeterminism(t *testing.T) {
	spec := MixedSpec{Common: Common{Seed: 7, Shards: 2}, Pairs: 4, Duration: time.Second}
	seq := spec
	seq.Workers = 1
	par := spec
	par.Workers = 4
	r1, err := RunMixed(seq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMixed(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJSON(t, r1), encodeJSON(t, r2)) {
		t.Fatal("mixed merged JSON differs between 1 and 4 workers")
	}
}

// TestFleetHTTPCompletes sanity-checks the workload itself: every request
// completes, nothing fails, latency statistics are populated.
func TestFleetHTTPCompletes(t *testing.T) {
	res, err := RunHTTP(testHTTPSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	table := res.Tables[0]
	if len(table.Rows) != 5 { // 4 shards + the "all" row
		t.Fatalf("got %d rows, want 5", len(table.Rows))
	}
	all := table.Rows[len(table.Rows)-1]
	if all[2] != "96" || all[3] != "0" {
		t.Fatalf("fleet row completed/failed = %s/%s, want 96/0", all[2], all[3])
	}
	if len(res.Series) != 2 || len(res.Series[0].Y) != 4 {
		t.Fatalf("expected 2 series with 4 shard points, got %+v", res.Series)
	}
}

// TestFleetPcapCapture runs a small fleet-http workload with per-shard
// capture enabled and checks that (a) enabling capture does not change the
// merged result, (b) every shard produced a capture file, and (c) each file
// is a valid classic pcap whose records decode back to TCP segments.
func TestFleetPcapCapture(t *testing.T) {
	const clients, shards = 8, 2
	base := DefaultHTTPSpec(42, clients, 1, 8<<10)
	base.Shards = shards
	plain, err := RunHTTP(base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	captured := DefaultHTTPSpec(42, clients, 1, 8<<10)
	captured.Shards = shards
	captured.PcapDir = dir
	withCap, err := RunHTTP(captured)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := encodeJSON(t, plain), encodeJSON(t, withCap); !bytes.Equal(a, b) {
		t.Fatalf("enabling pcap capture changed the merged result:\n%s\nvs\n%s", a, b)
	}

	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, fmt.Sprintf("fleet-http-shard%03d.pcap", i))
		recs, err := trace.ReadPcapFile(path)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(recs) == 0 {
			t.Fatalf("shard %d capture is empty", i)
		}
		var last time.Duration
		for j, rec := range recs {
			if rec.Ts < last {
				t.Fatalf("shard %d record %d: timestamps not monotonic", i, j)
			}
			last = rec.Ts
			src, dst, tcp, err := rec.TCP()
			if err != nil {
				t.Fatalf("shard %d record %d: %v", i, j, err)
			}
			seg, err := packet.Decode(src, dst, tcp)
			if err != nil {
				t.Fatalf("shard %d record %d: decode: %v", i, j, err)
			}
			if !packet.VerifyTCPChecksum(seg.Src, seg.Dst, tcp) {
				t.Fatalf("shard %d record %d: bad TCP checksum", i, j)
			}
			seg.Release()
		}
	}
}
