package faults

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"mptcpgo/internal/sim"
)

// The oracle's oracle. Fill and Feed work eight bytes per mix; the reference
// below is the definition, PatternByte one byte at a time, and the tests hold
// the two equal at every alignment, length and chunking. This is the job the
// checker's rolling hash used to do at run time (cross-check the comparer),
// done at test time instead.

// refPattern returns stream bytes [off, off+n) by definition.
func refPattern(seed, off uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = PatternByte(seed, off+uint64(i))
	}
	return p
}

// refVerdict is what a checker expecting `expected` bytes must report after
// consuming data, whatever the chunking: every byte counted, and the offset
// of the first one that differs from the pattern.
func refVerdict(seed uint64, expected int, data []byte) *Checker {
	k := &Checker{Seed: seed, Expected: uint64(expected), mismatch: -1}
	for _, b := range data {
		if k.mismatch < 0 && b != PatternByte(seed, k.received) {
			k.mismatch = int64(k.received)
		}
		k.received++
	}
	return k
}

// sameVerdict compares everything a caller can read off a checker.
func sameVerdict(got, want *Checker) error {
	if got.Intact() != want.Intact() || got.Complete() != want.Complete() || got.Received() != want.Received() ||
		fmt.Sprint(got.Err()) != fmt.Sprint(want.Err()) {
		return fmt.Errorf("intact=%v complete=%v received=%d err=%v; reference intact=%v complete=%v received=%d err=%v",
			got.Intact(), got.Complete(), got.Received(), got.Err(),
			want.Intact(), want.Complete(), want.Received(), want.Err())
	}
	return nil
}

// chunks cuts data at the fuzzed split lengths (0 is a legal, empty chunk);
// what the splits do not cover goes last in one piece, so long aligned runs
// are exercised too.
func chunks(data, splits []byte) [][]byte {
	var out [][]byte
	for _, s := range splits {
		n := min(int(s), len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	return append(out, data)
}

// mutate applies one of the faults a broken stack could inflict on a stream.
func mutate(data []byte, kind uint8, i, j int) []byte {
	if len(data) == 0 {
		return data
	}
	i, j = i%len(data), j%len(data)
	out := append([]byte(nil), data...)
	switch kind % 5 {
	case 1: // flip
		out[i] ^= 0x5A
	case 2: // drop
		out = append(out[:i], out[i+1:]...)
	case 3: // duplicate
		out = append(out[:i+1], data[i:]...)
	case 4: // swap
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func FuzzCheckerChunking(f *testing.F) {
	f.Add(uint64(7), uint16(0), uint16(64), []byte{8, 8, 8}, uint8(0), uint16(0), uint16(0))
	f.Add(uint64(42), uint16(3), uint16(1460), []byte{1, 7, 9, 0, 255, 13}, uint8(1), uint16(700), uint16(0))
	f.Add(uint64(1), uint16(5), uint16(33), []byte{5, 3}, uint8(2), uint16(17), uint16(0))
	f.Add(uint64(2), uint16(9), uint16(100), []byte{16, 1, 16}, uint8(3), uint16(40), uint16(0))
	f.Add(uint64(3), uint16(15), uint16(257), []byte{}, uint8(4), uint16(8), uint16(250))
	f.Fuzz(func(t *testing.T, seed uint64, start, length uint16, splits []byte, mut uint8, pos, pos2 uint16) {
		off, n := uint64(start), int(length)%4096
		want := refPattern(seed, off, n)

		// Fill, in one call and in the fuzzed pieces, is the pattern.
		k := NewChecker(seed, int(off)+n)
		got := make([]byte, n)
		k.Fill(got, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("Fill(%d bytes at %d) differs from the reference", n, off)
		}
		got = make([]byte, n)
		at := 0
		for _, c := range chunks(got, splits) {
			k.Fill(c, off+uint64(at))
			at += len(c)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Fill(%d bytes at %d) in pieces %v differs from the reference", n, off, splits)
		}
		// Each aligned word of it is one mix, little-endian on any host.
		for i := int(-off & 7); i+8 <= n; i += 8 {
			if w := binary.LittleEndian.Uint64(got[i:]); w != sim.DeriveSeed(seed, (off+uint64(i))>>3) {
				t.Fatalf("stream word %d is %#x, not the mix of (seed, word)", (off+uint64(i))>>3, w)
			}
		}

		// Feed: an intact prefix up to the start offset in one chunk, then
		// the possibly mutated rest in the fuzzed chunks.
		stream := append(refPattern(seed, 0, int(off)), mutate(want, mut, int(pos), int(pos2))...)
		k.Feed(stream[:off])
		for _, c := range chunks(stream[off:], splits) {
			k.Feed(c)
		}
		if err := sameVerdict(k, refVerdict(seed, int(off)+n, stream)); err != nil {
			t.Fatalf("start %d, %d bytes, mutation %d at %d/%d, chunks %v: %v", off, n, mut%5, pos, pos2, splits, err)
		}
	})
}

// TestCheckerEveryAlignment walks the head/word/tail seams exhaustively:
// every start offset within two words against every length up to five words.
func TestCheckerEveryAlignment(t *testing.T) {
	const seed, total = 11, 64
	// The definition is pinned: the bytes must not depend on the host or
	// drift between commits (goldens record only that the stream was intact).
	if got := hex.EncodeToString(refPattern(1, 0, 16)); got != "c15c0289ec2d0a9167ec8e65a18debbe" {
		t.Fatalf("pattern for seed 1 starts %s", got)
	}
	stream := refPattern(seed, 0, total)
	for off := 0; off <= 15; off++ {
		for n := 0; n <= 40; n++ {
			k := NewChecker(seed, total)
			p := make([]byte, n)
			k.Fill(p, uint64(off))
			if !bytes.Equal(p, stream[off:off+n]) {
				t.Fatalf("Fill(%d bytes at %d) = %x, want %x", n, off, p, stream[off:off+n])
			}
			k.Feed(stream[:off])
			k.Feed(stream[off : off+n])
			k.Feed(stream[off+n:])
			if !k.Complete() {
				t.Fatalf("intact stream cut at %d and %d: %v", off, off+n, k.Err())
			}
			if n == 0 {
				continue
			}
			// A wrong last byte of the middle chunk is reported where it is.
			bad := append([]byte(nil), stream...)
			bad[off+n-1] ^= 1
			k = NewChecker(seed, total)
			k.Feed(bad[:off])
			k.Feed(bad[off : off+n])
			k.Feed(bad[off+n:])
			if err := sameVerdict(k, refVerdict(seed, total, bad)); err != nil || k.Intact() {
				t.Fatalf("flip at %d, cuts at %d and %d: intact=%v %v", off+n-1, off, off+n, k.Intact(), err)
			}
		}
	}
}
