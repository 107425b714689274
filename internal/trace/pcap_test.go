package trace

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"
	"time"

	"mptcpgo/internal/packet"
)

func pcapSampleSegment(i int) *packet.Segment {
	return &packet.Segment{
		Src:    packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 40000},
		Dst:    packet.Endpoint{Addr: packet.MakeAddr(10, 0, 1, 2), Port: 80},
		Seq:    packet.SeqNum(1000 + i),
		Ack:    packet.SeqNum(2000 + i),
		Flags:  packet.FlagACK | packet.FlagPSH,
		Window: 8192,
		Options: []packet.Option{
			&packet.TimestampsOption{Val: uint32(i), Echo: uint32(i + 1)},
			&packet.DSSOption{HasDataACK: true, DataACK: packet.DataSeq(i), HasMapping: true, DataSeq: 7, SubflowOffset: 9, Length: 4},
		},
		Payload: []byte{0xde, 0xad, 0xbe, byte(i)},
	}
}

// TestPcapRoundTrip writes segments into a capture file, reads the file
// back with the package's own reader and checks that every record carries a
// valid pcap header, a well-formed IPv4 header and TCP bytes that Decode
// back to the emitted segment.
func TestPcapRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roundtrip.pcap")
	w, err := NewPcapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := w.WriteSegment(time.Duration(i)*time.Second+250*time.Millisecond, pcapSampleSegment(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.EncodeErrors != 0 {
		t.Fatalf("%d encode errors", w.EncodeErrors)
	}

	recs, err := ReadPcapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		wantTs := time.Duration(i)*time.Second + 250*time.Millisecond
		if rec.Ts != wantTs {
			t.Fatalf("record %d timestamp %v, want %v", i, rec.Ts, wantTs)
		}
		src, dst, tcp, err := rec.TCP()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := pcapSampleSegment(i)
		if src != want.Src.Addr || dst != want.Dst.Addr {
			t.Fatalf("record %d addresses %v->%v", i, src, dst)
		}
		// The synthesized IPv4 header must checksum to zero when re-summed
		// with its stored checksum (standard header validity check).
		if got := packet.Checksum(rec.Data[:20]); got != 0 {
			t.Fatalf("record %d IPv4 header checksum residue %#04x", i, got)
		}
		got, err := packet.Decode(src, dst, tcp)
		if err != nil {
			t.Fatalf("record %d TCP decode: %v", i, err)
		}
		if got.Seq != want.Seq || got.Ack != want.Ack || got.Flags != want.Flags || got.Window != want.Window {
			t.Fatalf("record %d header mismatch: %v", i, got)
		}
		if !packet.VerifyTCPChecksum(got.Src, got.Dst, tcp) {
			t.Fatalf("record %d TCP checksum invalid", i)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("record %d payload %x", i, got.Payload)
		}
		if len(got.Options) != len(want.Options) {
			t.Fatalf("record %d option count %d", i, len(got.Options))
		}
		for j := range want.Options {
			if got.Options[j].String() != want.Options[j].String() {
				t.Fatalf("record %d option %d: got %v want %v", i, j, got.Options[j], want.Options[j])
			}
		}
		got.Release()
	}
}

// TestPcapGlobalHeader pins the on-disk header format so external tools can
// open our captures: little-endian classic magic, version 2.4, LINKTYPE_RAW.
func TestPcapGlobalHeader(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != pcapFileHeaderLen {
		t.Fatalf("header length %d", len(hdr))
	}
	if !bytes.Equal(hdr[0:4], []byte{0xd4, 0xc3, 0xb2, 0xa1}) {
		t.Fatalf("magic bytes % x", hdr[0:4])
	}
	if binary.LittleEndian.Uint16(hdr[4:6]) != 2 || binary.LittleEndian.Uint16(hdr[6:8]) != 4 {
		t.Fatal("version is not 2.4")
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != LinkTypeRaw {
		t.Fatal("link type is not LINKTYPE_RAW")
	}
}

// TestPcapReaderRejectsForeignMagic guards the reader's error path.
func TestPcapReaderRejectsForeignMagic(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader(make([]byte, 24))); err != ErrPcapMagic {
		t.Fatalf("got %v, want ErrPcapMagic", err)
	}
}
