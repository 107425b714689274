package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChecksumKnownValues(t *testing.T) {
	// RFC 1071 example: 0x0001, 0xf203, 0xf4f5, 0xf6f7 sums to 0xddf2 before
	// complement.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
	if Checksum(nil) != 0xffff {
		t.Fatalf("checksum of empty data should be 0xffff")
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Fatal("odd-length data must be padded with a zero byte")
	}
}

func TestPartialChecksumComposition(t *testing.T) {
	// Summing in pieces must equal summing at once (this is what lets the
	// payload be checksummed a single time and reused for the TCP and DSS
	// checksums, §3.3.6).
	f := func(a, b []byte) bool {
		whole := FoldChecksum(PartialChecksum(0, append(append([]byte(nil), a...), b...)))
		split := FoldChecksum(PartialChecksum(PartialChecksum(0, a), b))
		// Padding matters: only compare when the first part has even length.
		if len(a)%2 != 0 {
			return true
		}
		return whole == split
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// VerifyDSSChecksum reports whether the DSS checksum in the option matches
// the payload it maps. Content-modifying middleboxes (§3.3.6) are detected by
// a mismatch here.
func VerifyDSSChecksum(opt *DSSOption, payload []byte) bool {
	if !opt.HasChecksum {
		return true
	}
	return DSSChecksum(opt.DataSeq, opt.SubflowOffset, opt.Length, payload) == opt.Checksum
}

func TestDSSChecksumDetectsModification(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	sum := DSSChecksum(1000, 20, uint16(len(payload)), payload)
	opt := &DSSOption{HasMapping: true, DataSeq: 1000, SubflowOffset: 20, Length: uint16(len(payload)), HasChecksum: true, Checksum: sum}
	if !VerifyDSSChecksum(opt, payload) {
		t.Fatal("unmodified payload must verify")
	}
	mod := append([]byte(nil), payload...)
	mod[3] ^= 0x20
	if VerifyDSSChecksum(opt, mod) {
		t.Fatal("modified payload must fail the DSS checksum")
	}
	// Length changes (ALG rewrites) are also detected.
	if VerifyDSSChecksum(opt, payload[:len(payload)-2]) {
		t.Fatal("truncated payload must fail the DSS checksum")
	}
}

func TestDSSChecksumQuick(t *testing.T) {
	f := func(seq uint64, off uint32, payload []byte) bool {
		if len(payload) > 65535 {
			payload = payload[:65535]
		}
		sum := DSSChecksum(DataSeq(seq), off, uint16(len(payload)), payload)
		opt := &DSSOption{HasMapping: true, DataSeq: DataSeq(seq), SubflowOffset: off, Length: uint16(len(payload)), HasChecksum: true, Checksum: sum}
		if !VerifyDSSChecksum(opt, payload) {
			return false
		}
		if len(payload) > 0 {
			mod := append([]byte(nil), payload...)
			mod[0] ^= 0x01
			if VerifyDSSChecksum(opt, mod) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPChecksumIncludesPseudoHeader(t *testing.T) {
	src := Endpoint{Addr: MakeAddr(10, 0, 0, 1), Port: 1}
	dst := Endpoint{Addr: MakeAddr(10, 0, 0, 2), Port: 2}
	hdr := make([]byte, 20)
	payload := []byte("data")
	a := TCPChecksum(src, dst, hdr, payload)
	otherSrc := Endpoint{Addr: MakeAddr(10, 0, 0, 3), Port: 1}
	b := TCPChecksum(otherSrc, dst, hdr, payload)
	if a == b {
		t.Fatal("checksum must depend on the pseudo-header addresses")
	}
}

// rfc1071Sum is the definition PartialChecksum is checked against: the
// ones-complement sum of big-endian 16-bit words (an odd byte padded with
// zero), accumulated in 64 bits and folded with end-around carry.
func rfc1071Sum(sum uint32, data []byte) uint16 {
	s := uint64(sum)
	for i := 0; i < len(data); i += 2 {
		w := uint64(data[i]) << 8
		if i+1 < len(data) {
			w |= uint64(data[i+1])
		}
		s += w
	}
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// FuzzPartialChecksum checks the word-at-a-time kernel against the 16-bit
// definition for any initial sum, length and starting alignment, and checks
// that summing an even-length prefix and then the rest equals summing the
// whole (what lets the payload sum feed both the TCP and the DSS checksum).
func FuzzPartialChecksum(f *testing.F) {
	ones := make([]byte, 9000)
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(uint32(0), uint8(0), uint16(0), []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7})
	f.Add(uint32(0xffffffff), uint8(3), uint16(1460), ones)
	f.Add(uint32(0x1234), uint8(7), uint16(33), ones[:1461])
	f.Fuzz(func(t *testing.T, sum uint32, off uint8, split uint16, data []byte) {
		data = data[min(int(off)%8, len(data)):]
		if got, want := FoldChecksum(PartialChecksum(sum, data)), rfc1071Sum(sum, data); got != want {
			t.Fatalf("PartialChecksum(%#x, %d bytes at offset %d) folds to %#x, RFC 1071 sum %#x", sum, len(data), off%8, got, want)
		}
		k := min(int(split), len(data)) &^ 1
		whole := FoldChecksum(PartialChecksum(sum, data))
		if parts := FoldChecksum(PartialChecksum(PartialChecksum(sum, data[:k]), data[k:])); parts != whole {
			t.Fatalf("summing %d+%d bytes folds to %#x, the whole %d to %#x", k, len(data)-k, parts, len(data), whole)
		}
	})
}
