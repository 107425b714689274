package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the 16-bit ones-complement sum of data (the Internet
// checksum used in the TCP header and, per §3.3.6 of the paper, reused for
// the DSS checksum so the payload only needs to be summed once).
func Checksum(data []byte) uint16 {
	return FoldChecksum(PartialChecksum(0, data))
}

// PartialChecksum accumulates the ones-complement sum of data into sum. The
// running sum is kept unfolded (32-bit) so that partial sums over payload and
// pseudo-headers can be combined, mirroring how the Linux implementation
// calculates the payload checksum once and feeds it into both the TCP and the
// DSS checksum.
//
// The inner loop consumes 32 bytes per iteration as four 64-bit loads added
// in one carry chain (bits.Add64 compiles to ADD/ADC), with the carries
// counted and wrapped around at the end. That is the
// ones-complement sum in 64-bit words, congruent (mod 2^16-1) to the classic
// 16-bit-word sum. The per-byte software checksum cost is what Figure 3 of
// the paper measures; the emulator charges the paper era's cost for it, not
// this implementation's.
func PartialChecksum(sum uint32, data []byte) uint32 {
	// The 8-byte-aligned prefix is summed as native-endian 64-bit words: the
	// one's-complement sum is byte-order independent (RFC 1071 §2B), so the
	// prefix can be accumulated without per-load byte swapping and the folded
	// 16-bit result swapped once at the end.
	// Each iteration's chain starts with a carry of 0 and its carry out goes
	// to a separate counter, so the only dependency from one iteration to the
	// next is acc itself: the carry never has to leave the flags register.
	var acc, carries, c uint64
	for len(data) >= 32 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), 0)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[8:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[16:]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data[24:]), c)
		carries += c
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(data), 0)
		carries += c
		data = data[8:]
	}
	// End-around carry: the carries are worth 2^64, which is 1 mod 2^64-1.
	// acc+carries overflows at most once, and the wrapped carry adds back
	// without overflowing again.
	acc, c = bits.Add64(acc, carries, 0)
	acc += c
	// Fold the native-order sum to 16 bits and swap it into network order
	// (values congruent mod 2^16-1 fold to the same final checksum, so any
	// width reduction preserving the congruence works). A non-zero sum folds
	// to a non-zero value, so the result is the unique representative in
	// [1, 0xffff] whatever the width of the accumulation.
	le := (acc >> 32) + (acc & 0xffffffff)
	le = (le >> 32) + (le & 0xffffffff)
	le16 := uint32(le>>16) + uint32(le&0xffff)
	for le16 > 0xffff {
		le16 = (le16 >> 16) + (le16 & 0xffff)
	}
	// The tail and the caller's sum are added in 64 bits and folded back to
	// 32 (2^32 is congruent to 1), so no initial sum can wrap the result; for
	// every sum the 32-bit addition would not have wrapped, this is that sum.
	s := uint64(sum) + uint64((le16&0xff)<<8+le16>>8)
	i, n := 0, len(data)
	for ; i+1 < n; i += 2 {
		s += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < n {
		s += uint64(data[i]) << 8
	}
	return uint32(s>>32) + uint32(s)
}

// FoldChecksum folds a 32-bit running sum into the final 16-bit ones
// complement value.
func FoldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// DSSChecksum computes the DSS checksum over the pseudo-header (the 64-bit
// data sequence number, the 32-bit relative subflow sequence number, the
// 16-bit data-level length and a zero pad, RFC 6824 §3.3.1) and payload.
// The pseudo-header is summed from a stack array (no allocation): this is
// the per-segment hot path when UseDSSChecksum is on, charged once at the
// sender and once at the receiver.
func DSSChecksum(dataSeq DataSeq, subflowOffset uint32, length uint16, payload []byte) uint16 {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(dataSeq))
	binary.BigEndian.PutUint32(b[8:12], subflowOffset)
	binary.BigEndian.PutUint16(b[12:14], length)
	// b[14:16] is the zero-filled checksum field.
	sum := PartialChecksum(0, b[:])
	sum = PartialChecksum(sum, payload)
	return FoldChecksum(sum)
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

// pseudoHeaderSum computes the TCP pseudo-header contribution for the
// emulated IPv4 addressing scheme.
func pseudoHeaderSum(src, dst Endpoint, tcpLen int) uint32 {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(src.Addr))
	binary.BigEndian.PutUint32(b[4:8], uint32(dst.Addr))
	b[8] = 0
	b[9] = 6 // protocol number for TCP
	binary.BigEndian.PutUint16(b[10:12], uint16(tcpLen))
	return PartialChecksum(0, b[:])
}

// TCPChecksum computes the TCP checksum over the pseudo-header, the encoded
// TCP header (with a zeroed checksum field) and the payload.
func TCPChecksum(src, dst Endpoint, header, payload []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, len(header)+len(payload))
	sum = PartialChecksum(sum, header)
	sum = PartialChecksum(sum, payload)
	return FoldChecksum(sum)
}
