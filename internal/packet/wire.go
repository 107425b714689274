package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mptcpgo/internal/pool"
)

// Wire-format errors.
var (
	ErrOptionSpace   = errors.New("packet: options exceed 40-byte TCP option space")
	ErrShortSegment  = errors.New("packet: truncated segment")
	ErrBadDataOffset = errors.New("packet: bad data offset")
	ErrBadOption     = errors.New("packet: malformed option")
)

const headerLen = 20

// WireLen returns the number of bytes Encode will produce for the segment.
func WireLen(s *Segment) int {
	return headerLen + OptionsWireLen(s.Options) + len(s.Payload)
}

// WireLen returns the number of bytes Encode will produce for the segment.
// Method form of the package-level WireLen, for hot-path callers (the
// observability layer's per-segment byte accounting) that hold a segment.
func (s *Segment) WireLen() int { return WireLen(s) }

// Encode serializes the segment into the RFC 793 wire format (TCP header,
// options padded to a 4-byte boundary, payload) and fills in the TCP
// checksum. Addresses are included via the pseudo-header, matching how the
// checksum is computed on a real stack.
//
// The returned buffer is drawn from the internal/pool size classes and
// ownership transfers to the caller: return it with ReleaseWire (or
// pool.Recycle) once the bytes have been consumed, or let the garbage
// collector take it if it escapes. Encoding a steady stream of segments is
// allocation-free once the pool classes are warm.
func Encode(s *Segment) ([]byte, error) {
	optLen := OptionsWireLen(s.Options)
	if optLen > MaxOptionSpace {
		return nil, fmt.Errorf("%w: %d bytes", ErrOptionSpace, optLen)
	}
	hdrLen := headerLen + optLen
	buf := pool.Bytes(hdrLen + len(s.Payload))
	binary.BigEndian.PutUint16(buf[0:2], s.Src.Port)
	binary.BigEndian.PutUint16(buf[2:4], s.Dst.Port)
	binary.BigEndian.PutUint32(buf[4:8], uint32(s.Seq))
	binary.BigEndian.PutUint32(buf[8:12], uint32(s.Ack))
	buf[12] = byte(hdrLen/4) << 4
	buf[13] = byte(s.Flags)
	binary.BigEndian.PutUint16(buf[14:16], s.Window)
	// Pool buffers arrive with undefined contents: the checksum field must be
	// zero while the checksum is computed, and the urgent pointer is always
	// zero on the wire.
	buf[16], buf[17] = 0, 0
	buf[18], buf[19] = 0, 0

	off := headerLen
	for _, o := range s.Options {
		n, err := encodeOption(buf[off:hdrLen], o)
		if err != nil {
			pool.Recycle(buf)
			return nil, err
		}
		off += n
	}
	// Pad the remaining option space with NOPs (the padding is at most three
	// bytes, since OptionsWireLen rounds up to the 4-byte boundary).
	for off < hdrLen {
		buf[off] = byte(OptNOP)
		off++
	}
	copy(buf[hdrLen:], s.Payload)

	csum := TCPChecksum(s.Src, s.Dst, buf[:hdrLen], s.Payload)
	binary.BigEndian.PutUint16(buf[16:18], csum)
	return buf, nil
}

// ReleaseWire returns a buffer obtained from Encode to the buffer pool. It
// is safe on sub-sliced or foreign buffers (they are simply dropped).
func ReleaseWire(b []byte) { pool.Recycle(b) }

// VerifyTCPChecksum reports whether an encoded segment's checksum is valid
// for the given endpoints. The verification sums around the checksum field
// in place, so it never copies or allocates. Only tests call it; it is
// exported for the capture tests of trace, fleet and experiments.
func VerifyTCPChecksum(src, dst Endpoint, wire []byte) bool {
	if len(wire) < headerLen {
		return false
	}
	hdrLen := int(wire[12]>>4) * 4
	if hdrLen < headerLen || hdrLen > len(wire) {
		return false
	}
	// The stored checksum occupies exactly one 16-bit word at an even offset,
	// so summing the bytes before and after it is congruent to summing the
	// whole header with the field zeroed.
	sum := pseudoHeaderSum(src, dst, len(wire))
	sum = PartialChecksum(sum, wire[:16])
	sum = PartialChecksum(sum, wire[18:])
	return FoldChecksum(sum) == binary.BigEndian.Uint16(wire[16:18])
}

func encodeOption(dst []byte, o Option) (int, error) {
	n := o.WireLen()
	if len(dst) < n {
		return 0, ErrOptionSpace
	}
	b := dst[:n]
	switch opt := o.(type) {
	case *MSSOption:
		b[0], b[1] = byte(OptMSS), 4
		binary.BigEndian.PutUint16(b[2:4], opt.MSS)
	case *WindowScaleOption:
		b[0], b[1], b[2] = byte(OptWindowScale), 3, opt.Shift
	case *TimestampsOption:
		b[0], b[1] = byte(OptTimestamps), 10
		binary.BigEndian.PutUint32(b[2:6], opt.Val)
		binary.BigEndian.PutUint32(b[6:10], opt.Echo)
	case *SACKPermittedOption:
		b[0], b[1] = byte(OptSACKPermitted), 2
	case *SACKOption:
		b[0], b[1] = byte(OptSACK), byte(2+8*len(opt.Blocks))
		for i, blk := range opt.Blocks {
			binary.BigEndian.PutUint32(b[2+8*i:], uint32(blk.Left))
			binary.BigEndian.PutUint32(b[6+8*i:], uint32(blk.Right))
		}
	case *MPCapableOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		b[2] = byte(SubMPCapable)<<4 | (opt.Version & 0x0f)
		var flags byte = 0x01 // H: HMAC-SHA1
		if opt.ChecksumRequired {
			flags |= 0x80
		}
		b[3] = flags
		binary.BigEndian.PutUint64(b[4:12], opt.SenderKey)
		if opt.HasReceiverKey {
			binary.BigEndian.PutUint64(b[12:20], opt.ReceiverKey)
		}
	case *MPJoinOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		var backup byte
		if opt.Backup {
			backup = 0x01
		}
		switch opt.Phase {
		case JoinSYN:
			b[2] = byte(SubMPJoin)<<4 | backup
			b[3] = opt.AddrID
			binary.BigEndian.PutUint32(b[4:8], opt.ReceiverToken)
			binary.BigEndian.PutUint32(b[8:12], opt.SenderNonce)
		case JoinSYNACK:
			b[2] = byte(SubMPJoin)<<4 | backup
			b[3] = opt.AddrID
			putHMAC(b[4:12], opt.SenderHMAC)
			binary.BigEndian.PutUint32(b[12:16], opt.SenderNonce)
		default: // JoinACK
			b[2] = byte(SubMPJoin) << 4
			b[3] = 0
			putHMAC(b[4:24], opt.SenderHMAC)
		}
	case *DSSOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		b[2] = byte(SubDSS) << 4
		var flags byte
		if opt.DataFIN {
			flags |= 0x10
		}
		off := 4
		if opt.HasDataACK {
			flags |= 0x01 | 0x02 // data ACK present, 8 octets
			binary.BigEndian.PutUint64(b[off:], uint64(opt.DataACK))
			off += 8
		}
		if opt.HasMapping {
			flags |= 0x04 | 0x08 // DSN present, 8 octets
			binary.BigEndian.PutUint64(b[off:], uint64(opt.DataSeq))
			off += 8
			binary.BigEndian.PutUint32(b[off:], opt.SubflowOffset)
			off += 4
			binary.BigEndian.PutUint16(b[off:], opt.Length)
			off += 2
			if opt.HasChecksum {
				binary.BigEndian.PutUint16(b[off:], opt.Checksum)
				off += 2
			}
		}
		b[3] = flags
	case *AddAddrOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		b[2] = byte(SubAddAddr)<<4 | 4 // IPVer = 4
		b[3] = opt.AddrID
		binary.BigEndian.PutUint32(b[4:8], uint32(opt.Addr))
		if opt.Port != 0 {
			binary.BigEndian.PutUint16(b[8:10], opt.Port)
		}
	case *RemoveAddrOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		b[2] = byte(SubRemoveAddr) << 4
		copy(b[3:], opt.AddrIDs)
	case *MPPrioOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		var backup byte
		if opt.Backup {
			backup = 0x01
		}
		b[2] = byte(SubMPPrio)<<4 | backup
		b[3] = opt.AddrID
	case *MPFailOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		b[2] = byte(SubMPFail) << 4
		b[3] = 0
		binary.BigEndian.PutUint64(b[4:12], uint64(opt.DataSeq))
	case *FastcloseOption:
		b[0], b[1] = byte(OptMPTCP), byte(n)
		b[2] = byte(SubFastclose) << 4
		b[3] = 0
		binary.BigEndian.PutUint64(b[4:12], opt.ReceiverKey)
	default:
		return 0, fmt.Errorf("%w: unknown option type %T", ErrBadOption, o)
	}
	return n, nil
}

// putHMAC writes h into dst, zero-padding the tail; pool-backed encode
// buffers have undefined contents, so every byte must be written explicitly.
func putHMAC(dst, h []byte) {
	n := copy(dst, h)
	for ; n < len(dst); n++ {
		dst[n] = 0
	}
}

// Decode parses a wire-format segment. The src/dst endpoints carry the
// addresses (which live in the IP header on a real network); ports are taken
// from the TCP header itself.
//
// The returned segment is drawn from the segment pool with its options
// stored in the segment's inline arena, and its payload borrows from wire
// rather than copying — zero allocations at steady state. The caller owns
// the segment (Release it when done) and must keep wire alive and unmodified
// for as long as the segment's payload is in use; Clone the segment to
// outlive the wire buffer.
func Decode(src, dst Addr, wire []byte) (*Segment, error) {
	if len(wire) < headerLen {
		return nil, ErrShortSegment
	}
	hdrLen := int(wire[12]>>4) * 4
	if hdrLen < headerLen || hdrLen > len(wire) {
		return nil, ErrBadDataOffset
	}
	s := NewSegment()
	s.Src = Endpoint{Addr: src, Port: binary.BigEndian.Uint16(wire[0:2])}
	s.Dst = Endpoint{Addr: dst, Port: binary.BigEndian.Uint16(wire[2:4])}
	s.Seq = SeqNum(binary.BigEndian.Uint32(wire[4:8]))
	s.Ack = SeqNum(binary.BigEndian.Uint32(wire[8:12]))
	s.Flags = Flags(wire[13])
	s.Window = binary.BigEndian.Uint16(wire[14:16])
	if err := decodeOptionsInto(s, wire[headerLen:hdrLen]); err != nil {
		s.Release()
		return nil, err
	}
	if len(wire) > hdrLen {
		s.Payload = wire[hdrLen:]
	}
	return s, nil
}

// decodeOptionsInto parses the option block into the segment's option list,
// drawing option storage from the segment's arena.
func decodeOptionsInto(s *Segment, b []byte) error {
	for len(b) > 0 {
		kind := OptionKind(b[0])
		if kind == OptEOL {
			break
		}
		if kind == OptNOP {
			b = b[1:]
			continue
		}
		if len(b) < 2 {
			return ErrBadOption
		}
		olen := int(b[1])
		if olen < 2 || olen > len(b) {
			return ErrBadOption
		}
		if err := decodeOptionInto(s, kind, b[:olen]); err != nil {
			return err
		}
		b = b[olen:]
	}
	return nil
}

func decodeOptionInto(s *Segment, kind OptionKind, b []byte) error {
	switch kind {
	case OptMSS:
		if len(b) != 4 {
			return ErrBadOption
		}
		o := s.newMSS()
		o.MSS = binary.BigEndian.Uint16(b[2:4])
		s.Options = append(s.Options, o)
	case OptWindowScale:
		if len(b) != 3 {
			return ErrBadOption
		}
		o := s.newWindowScale()
		o.Shift = b[2]
		s.Options = append(s.Options, o)
	case OptTimestamps:
		if len(b) != 10 {
			return ErrBadOption
		}
		s.AppendTimestamps(binary.BigEndian.Uint32(b[2:6]), binary.BigEndian.Uint32(b[6:10]))
	case OptSACKPermitted:
		if len(b) != 2 {
			return ErrBadOption
		}
		s.Options = append(s.Options, s.newSACKPermitted())
	case OptSACK:
		if (len(b)-2)%8 != 0 {
			return ErrBadOption
		}
		o := s.newSACK((len(b) - 2) / 8)
		for i := range o.Blocks {
			o.Blocks[i] = SACKBlock{
				Left:  SeqNum(binary.BigEndian.Uint32(b[2+8*i:])),
				Right: SeqNum(binary.BigEndian.Uint32(b[6+8*i:])),
			}
		}
		s.Options = append(s.Options, o)
	case OptMPTCP:
		return decodeMPTCPInto(s, b)
	default:
		// Unknown options are preserved so that "pass options you don't
		// understand" middlebox behaviour can be modeled; for simplicity we
		// drop them here since our endpoints never emit unknown kinds.
	}
	return nil
}

func decodeMPTCPInto(s *Segment, b []byte) error {
	if len(b) < 3 {
		return ErrBadOption
	}
	sub := MPTCPSubtype(b[2] >> 4)
	switch sub {
	case SubMPCapable:
		if len(b) != 12 && len(b) != 20 {
			return ErrBadOption
		}
		o := s.newMPCapable()
		o.Version = b[2] & 0x0f
		o.ChecksumRequired = b[3]&0x80 != 0
		o.SenderKey = binary.BigEndian.Uint64(b[4:12])
		if len(b) == 20 {
			o.HasReceiverKey = true
			o.ReceiverKey = binary.BigEndian.Uint64(b[12:20])
		}
		s.Options = append(s.Options, o)
	case SubMPJoin:
		o := s.newMPJoin()
		switch len(b) {
		case 12:
			o.Phase = JoinSYN
			o.Backup = b[2]&0x01 != 0
			o.AddrID = b[3]
			o.ReceiverToken = binary.BigEndian.Uint32(b[4:8])
			o.SenderNonce = binary.BigEndian.Uint32(b[8:12])
		case 16:
			o.Phase = JoinSYNACK
			o.Backup = b[2]&0x01 != 0
			o.AddrID = b[3]
			o.SenderHMAC = s.arenaBytes(8)
			copy(o.SenderHMAC, b[4:12])
			o.SenderNonce = binary.BigEndian.Uint32(b[12:16])
		case 24:
			o.Phase = JoinACK
			o.SenderHMAC = s.arenaBytes(20)
			copy(o.SenderHMAC, b[4:24])
		default:
			return ErrBadOption
		}
		s.Options = append(s.Options, o)
	case SubDSS:
		if len(b) < 4 {
			return ErrBadOption
		}
		flags := b[3]
		o := s.NewDSSOption()
		o.DataFIN = flags&0x10 != 0
		off := 4
		if flags&0x01 != 0 {
			ackLen := 4
			if flags&0x02 != 0 {
				ackLen = 8
			}
			if len(b) < off+ackLen {
				return ErrBadOption
			}
			o.HasDataACK = true
			if ackLen == 8 {
				o.DataACK = DataSeq(binary.BigEndian.Uint64(b[off:]))
			} else {
				o.DataACK = DataSeq(binary.BigEndian.Uint32(b[off:]))
			}
			off += ackLen
		}
		if flags&0x04 != 0 {
			dsnLen := 4
			if flags&0x08 != 0 {
				dsnLen = 8
			}
			if len(b) < off+dsnLen+6 {
				return ErrBadOption
			}
			o.HasMapping = true
			if dsnLen == 8 {
				o.DataSeq = DataSeq(binary.BigEndian.Uint64(b[off:]))
			} else {
				o.DataSeq = DataSeq(binary.BigEndian.Uint32(b[off:]))
			}
			off += dsnLen
			o.SubflowOffset = binary.BigEndian.Uint32(b[off:])
			off += 4
			o.Length = binary.BigEndian.Uint16(b[off:])
			off += 2
			if len(b) >= off+2 {
				o.HasChecksum = true
				o.Checksum = binary.BigEndian.Uint16(b[off:])
			}
		}
		s.Options = append(s.Options, o)
	case SubAddAddr:
		if len(b) != 8 && len(b) != 10 {
			return ErrBadOption
		}
		o := s.newAddAddr()
		o.AddrID = b[3]
		o.Addr = Addr(binary.BigEndian.Uint32(b[4:8]))
		if len(b) == 10 {
			o.Port = binary.BigEndian.Uint16(b[8:10])
		}
		s.Options = append(s.Options, o)
	case SubRemoveAddr:
		if len(b) < 4 {
			return ErrBadOption
		}
		o := s.newRemoveAddr(len(b) - 3)
		copy(o.AddrIDs, b[3:])
		s.Options = append(s.Options, o)
	case SubMPPrio:
		o := s.newMPPrio()
		o.Backup = b[2]&0x01 != 0
		if len(b) >= 4 {
			o.AddrID = b[3]
		}
		s.Options = append(s.Options, o)
	case SubMPFail:
		if len(b) != 12 {
			return ErrBadOption
		}
		o := s.newMPFail()
		o.DataSeq = DataSeq(binary.BigEndian.Uint64(b[4:12]))
		s.Options = append(s.Options, o)
	case SubFastclose:
		if len(b) != 12 {
			return ErrBadOption
		}
		o := s.newFastclose()
		o.ReceiverKey = binary.BigEndian.Uint64(b[4:12])
		s.Options = append(s.Options, o)
	default:
		return fmt.Errorf("%w: MPTCP subtype %d", ErrBadOption, sub)
	}
	return nil
}
