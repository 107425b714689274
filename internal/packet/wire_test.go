package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sampleSegment() *Segment {
	return &Segment{
		Src:    Endpoint{Addr: MakeAddr(10, 0, 0, 1), Port: 43210},
		Dst:    Endpoint{Addr: MakeAddr(10, 0, 1, 2), Port: 80},
		Seq:    0xdeadbeef,
		Ack:    0x01020304,
		Flags:  FlagACK | FlagPSH,
		Window: 32000,
		Options: []Option{
			&MSSOption{MSS: 1460},
			&WindowScaleOption{Shift: 7},
			&TimestampsOption{Val: 123456, Echo: 654321},
		},
		Payload: []byte("hello multipath world"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	seg := sampleSegment()
	wire, err := Encode(seg)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(seg.Src.Addr, seg.Dst.Addr, wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seq != seg.Seq || got.Ack != seg.Ack || got.Flags != seg.Flags || got.Window != seg.Window {
		t.Fatalf("header mismatch: got %+v want %+v", got, seg)
	}
	if !bytes.Equal(got.Payload, seg.Payload) {
		t.Fatalf("payload mismatch")
	}
	if len(got.Options) != len(seg.Options) {
		t.Fatalf("option count mismatch: got %d want %d", len(got.Options), len(seg.Options))
	}
	for i := range seg.Options {
		if !reflect.DeepEqual(got.Options[i], seg.Options[i]) {
			t.Errorf("option %d mismatch: got %#v want %#v", i, got.Options[i], seg.Options[i])
		}
	}
}

func TestEncodeChecksumValid(t *testing.T) {
	seg := sampleSegment()
	wire, err := Encode(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyTCPChecksum(seg.Src, seg.Dst, wire) {
		t.Fatal("checksum of freshly encoded segment must verify")
	}
	// Corrupt one payload byte; the checksum must fail.
	wire[len(wire)-1] ^= 0xff
	if VerifyTCPChecksum(seg.Src, seg.Dst, wire) {
		t.Fatal("corrupted segment must not verify")
	}
}

func TestMPTCPOptionRoundTrips(t *testing.T) {
	options := []Option{
		&MPCapableOption{Version: 0, ChecksumRequired: true, SenderKey: 0x1122334455667788},
		&MPCapableOption{SenderKey: 1, ReceiverKey: 2, HasReceiverKey: true},
		&MPJoinOption{Phase: JoinSYN, AddrID: 3, Backup: true, ReceiverToken: 0xabcdef01, SenderNonce: 42},
		&MPJoinOption{Phase: JoinSYNACK, AddrID: 4, SenderHMAC: []byte{1, 2, 3, 4, 5, 6, 7, 8}, SenderNonce: 7},
		&MPJoinOption{Phase: JoinACK, SenderHMAC: bytes.Repeat([]byte{0xaa}, 20)},
		&DSSOption{HasDataACK: true, DataACK: 123456789},
		&DSSOption{HasDataACK: true, DataACK: 1, HasMapping: true, DataSeq: 99, SubflowOffset: 1000, Length: 1460, HasChecksum: true, Checksum: 0xbeef},
		&DSSOption{HasMapping: true, DataSeq: 5, SubflowOffset: 0, Length: 0, DataFIN: true},
		&AddAddrOption{AddrID: 2, Addr: MakeAddr(192, 168, 1, 7), Port: 8080},
		&AddAddrOption{AddrID: 3, Addr: MakeAddr(192, 168, 1, 8)},
		&RemoveAddrOption{AddrIDs: []uint8{2, 3}},
		&MPPrioOption{AddrID: 9, Backup: true},
		&MPFailOption{DataSeq: 0xfeedface},
		&FastcloseOption{ReceiverKey: 0x0102030405060708},
	}
	for _, opt := range options {
		seg := &Segment{
			Src:     Endpoint{Addr: MakeAddr(1, 1, 1, 1), Port: 1},
			Dst:     Endpoint{Addr: MakeAddr(2, 2, 2, 2), Port: 2},
			Flags:   FlagACK,
			Options: []Option{opt},
		}
		wire, err := Encode(seg)
		if err != nil {
			t.Fatalf("%s: encode: %v", opt, err)
		}
		got, err := Decode(seg.Src.Addr, seg.Dst.Addr, wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", opt, err)
		}
		if len(got.Options) != 1 {
			t.Fatalf("%s: got %d options", opt, len(got.Options))
		}
		if !reflect.DeepEqual(got.Options[0], opt) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got.Options[0], opt)
		}
	}
}

func TestOptionSpaceLimit(t *testing.T) {
	seg := sampleSegment()
	for i := 0; i < 6; i++ {
		seg.Options = append(seg.Options, &DSSOption{HasDataACK: true, DataACK: 1, HasMapping: true, Length: 1})
	}
	if _, err := Encode(seg); err == nil {
		t.Fatal("expected an error when options exceed 40 bytes")
	}
}

// TestDSSOptionQuick is a property test: any DSS option combination encodes
// into at most 40 bytes... and decodes to the same values.
func TestDSSOptionQuick(t *testing.T) {
	f := func(dataAck uint64, dataSeq uint64, off uint32, length uint16, hasAck, hasMap, fin, csum bool, csumVal uint16) bool {
		opt := &DSSOption{
			HasDataACK: hasAck, DataACK: DataSeq(dataAck),
			HasMapping: hasMap, DataSeq: DataSeq(dataSeq), SubflowOffset: off, Length: length,
			HasChecksum: hasMap && csum, Checksum: csumVal,
			DataFIN: fin,
		}
		seg := &Segment{
			Src:     Endpoint{Addr: 1, Port: 1},
			Dst:     Endpoint{Addr: 2, Port: 2},
			Flags:   FlagACK,
			Options: []Option{opt},
		}
		wire, err := Encode(seg)
		if err != nil {
			return false
		}
		got, err := Decode(seg.Src.Addr, seg.Dst.Addr, wire)
		if err != nil || len(got.Options) != 1 {
			return false
		}
		d, ok := got.Options[0].(*DSSOption)
		if !ok {
			return false
		}
		if d.HasDataACK != opt.HasDataACK || d.HasMapping != opt.HasMapping || d.DataFIN != opt.DataFIN {
			return false
		}
		if opt.HasDataACK && d.DataACK != opt.DataACK {
			return false
		}
		if opt.HasMapping && (d.DataSeq != opt.DataSeq || d.SubflowOffset != opt.SubflowOffset || d.Length != opt.Length) {
			return false
		}
		if opt.HasChecksum && d.Checksum != opt.Checksum {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqNumComparisons(t *testing.T) {
	cases := []struct {
		a, b SeqNum
		less bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{0xffffff00, 0x00000010, true}, // wraparound
		{0x00000010, 0xffffff00, false},
	}
	for _, c := range cases {
		if got := c.a.LessThan(c.b); got != c.less {
			t.Errorf("LessThan(%d,%d)=%v want %v", c.a, c.b, got, c.less)
		}
	}
	if !SeqNum(10).InRange(10, 20) || SeqNum(20).InRange(10, 20) {
		t.Fatal("InRange boundary behaviour wrong")
	}
}

func TestSegmentCloneIsDeep(t *testing.T) {
	seg := sampleSegment()
	cl := seg.Clone()
	cl.Payload[0] = 'X'
	cl.Options[0].(*MSSOption).MSS = 9
	if seg.Payload[0] == 'X' || seg.Options[0].(*MSSOption).MSS == 9 {
		t.Fatal("Clone must deep-copy payload and options")
	}
}

func TestRemoveOptions(t *testing.T) {
	seg := sampleSegment()
	seg.Options = append(seg.Options, &MPCapableOption{SenderKey: 5})
	removed := seg.RemoveOptions(func(o Option) bool { return o.Kind() == OptMPTCP })
	if removed != 1 || seg.HasMPTCP() {
		t.Fatalf("expected exactly the MPTCP option to be removed, removed=%d", removed)
	}
}

// TestSortSACKBlocksMatchesReference sorts random disjoint block sets, in
// random order and in the receiver's order (sorted but for the block appended
// last), and compares with sort.Slice over the same comparison. Left edges of
// disjoint blocks are distinct, so there is one right answer.
func TestSortSACKBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(9)
		blocks := make([]SACKBlock, n)
		// Disjoint blocks laid out from a random start, wrap-around included.
		at := SeqNum(rng.Uint32())
		for i := range blocks {
			at = at.Add(1 + uint32(rng.Intn(3000)))
			blocks[i].Left = at
			at = at.Add(1 + uint32(rng.Intn(3000)))
			blocks[i].Right = at
		}
		if trial%2 == 0 {
			rng.Shuffle(n, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		} else if n > 1 {
			i := rng.Intn(n) // the receiver's case: one block out of place, at the end
			moved := blocks[i]
			copy(blocks[i:], blocks[i+1:])
			blocks[n-1] = moved
		}
		want := append([]SACKBlock{}, blocks...)
		sort.Slice(want, func(i, j int) bool { return want[i].Left.LessThan(want[j].Left) })
		SortSACKBlocks(blocks)
		if !reflect.DeepEqual(blocks, want) {
			t.Fatalf("trial %d: sorted %v, reference %v", trial, blocks, want)
		}
	}
}

// TestSortSACKBlocksNoAllocs: the receiver sorts its range list on every
// out-of-order arrival.
func TestSortSACKBlocksNoAllocs(t *testing.T) {
	blocks := []SACKBlock{{100, 200}, {300, 400}, {500, 600}, {700, 800}}
	avg := testing.AllocsPerRun(500, func() {
		blocks[0], blocks[3] = blocks[3], blocks[0]
		SortSACKBlocks(blocks)
	})
	if avg != 0 {
		t.Fatalf("SortSACKBlocks allocates %.1f times per call, want 0", avg)
	}
	if blocks[0].Left != 100 || blocks[3].Left != 700 {
		t.Fatalf("not sorted: %v", blocks)
	}
}
