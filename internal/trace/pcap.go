package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// Classic pcap export. Every segment a link accepts can be serialized
// through the unified wire codec (packet.Encode) and written as a raw-IPv4
// pcap record, so any scenario's traffic is inspectable with tcpdump,
// Wireshark or tshark. The format is the classic libpcap file format
// (little-endian, version 2.4) with LINKTYPE_RAW: each record starts
// directly with a synthesized IPv4 header followed by the exact TCP bytes
// the codec produced — the same bytes a middlebox on the emulated path would
// see.

// Pcap file constants.
const (
	pcapMagic        = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	pcapSnapLen      = 262144

	// LinkTypeRaw is LINKTYPE_RAW (101): packets begin with the IPv4 header.
	LinkTypeRaw = 101

	ipHeaderLen       = 20
	pcapFileHeaderLen = 24
	pcapRecHeaderLen  = 16
)

// Pcap errors.
var (
	ErrPcapMagic     = errors.New("trace: not a little-endian classic pcap file")
	ErrPcapTruncated = errors.New("trace: truncated pcap record")
)

// PcapWriter streams segments into a classic pcap capture. Writes are
// buffered; Close flushes (and closes the underlying file when the writer
// was opened with NewPcapFile). The zero value is not usable — construct
// with NewPcapWriter or NewPcapFile.
//
// Wire buffers produced while encoding are drawn from and returned to the
// byte-buffer pool, so steady-state capture does not allocate per packet.
type PcapWriter struct {
	buf    *bufio.Writer
	closer io.Closer
	closed bool
	// EncodeErrors counts segments the codec rejected and therefore skipped.
	// The emulated stacks emit only wire-expressible segments (every option
	// set fits the 40-byte TCP option space), so any nonzero count indicates
	// an emulator bug. Callers that require gap-free captures check this
	// field.
	EncodeErrors int

	scratch [pcapRecHeaderLen + ipHeaderLen]byte
}

// NewPcapWriter wraps w in a pcap stream and writes the global file header.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	p := &PcapWriter{buf: bufio.NewWriterSize(w, 64<<10)}
	var hdr [pcapFileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMinor)
	// hdr[8:16]: thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	if _, err := p.buf.Write(hdr[:]); err != nil {
		return nil, err
	}
	return p, nil
}

// NewPcapFile creates (truncating) the file at path and returns a writer
// capturing into it.
func NewPcapFile(path string) (*PcapWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	p, err := NewPcapWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	p.closer = f
	return p, nil
}

// WriteSegment encodes the segment through the wire codec and appends one
// record stamped with the simulation time. Segments the codec rejects are
// counted in EncodeErrors and skipped.
func (p *PcapWriter) WriteSegment(now time.Duration, seg *packet.Segment) error {
	wire, err := packet.Encode(seg)
	if err != nil {
		p.EncodeErrors++
		return err
	}
	defer packet.ReleaseWire(wire)

	caplen := ipHeaderLen + len(wire)
	b := p.scratch[:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(now/time.Second))
	binary.LittleEndian.PutUint32(b[4:8], uint32((now%time.Second)/time.Microsecond))
	binary.LittleEndian.PutUint32(b[8:12], uint32(caplen))
	binary.LittleEndian.PutUint32(b[12:16], uint32(caplen))

	// Synthesized IPv4 header: the emulator carries addresses out of band,
	// so the wire capture reconstructs the header a real stack would emit.
	ip := b[pcapRecHeaderLen:]
	totalLen := caplen
	if totalLen > 0xffff {
		totalLen = 0xffff // oversized coalesced segments: clamp, like TSO captures
	}
	ip[0], ip[1] = 0x45, 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	ip[4], ip[5], ip[6], ip[7] = 0, 0, 0, 0 // id, flags/fragment
	ip[8], ip[9] = 64, 6                    // TTL, protocol TCP
	ip[10], ip[11] = 0, 0                   // checksum below
	binary.BigEndian.PutUint32(ip[12:16], uint32(seg.Src.Addr))
	binary.BigEndian.PutUint32(ip[16:20], uint32(seg.Dst.Addr))
	binary.BigEndian.PutUint16(ip[10:12], packet.Checksum(ip[:ipHeaderLen]))

	if _, err := p.buf.Write(b); err != nil {
		return err
	}
	if _, err := p.buf.Write(wire); err != nil {
		return err
	}
	return nil
}

// Close flushes buffered records and closes the underlying file, if any.
// Close is idempotent: second and later calls return nil, so callers can
// pair a defensive `defer w.Close()` with an explicit error-checked Close.
// Close does not fail on EncodeErrors; callers requiring gap-free captures
// check the counter instead.
func (p *PcapWriter) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.buf.Flush()
	if p.closer != nil {
		if cerr := p.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// PcapRecord is one captured packet: the capture timestamp and the raw
// bytes (IPv4 header + TCP segment for captures this package wrote).
type PcapRecord struct {
	Ts   time.Duration
	Data []byte
}

// TCP splits the record into the IPv4 source/destination addresses and the
// TCP bytes, which packet.Decode can parse back into a Segment.
func (r PcapRecord) TCP() (src, dst packet.Addr, tcp []byte, err error) {
	if len(r.Data) < ipHeaderLen || r.Data[0]>>4 != 4 {
		return 0, 0, nil, fmt.Errorf("trace: record is not IPv4")
	}
	ihl := int(r.Data[0]&0x0f) * 4
	if ihl < ipHeaderLen || len(r.Data) < ihl {
		return 0, 0, nil, ErrPcapTruncated
	}
	src = packet.Addr(binary.BigEndian.Uint32(r.Data[12:16]))
	dst = packet.Addr(binary.BigEndian.Uint32(r.Data[16:20]))
	return src, dst, r.Data[ihl:], nil
}

// ReadPcap parses a little-endian classic pcap stream (the format
// PcapWriter produces) and returns its records.
func ReadPcap(r io.Reader) ([]PcapRecord, error) {
	br := bufio.NewReader(r)
	var hdr [pcapFileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pcapMagic {
		return nil, ErrPcapMagic
	}
	var out []PcapRecord
	for {
		var rh [pcapRecHeaderLen]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, ErrPcapTruncated
		}
		sec := binary.LittleEndian.Uint32(rh[0:4])
		usec := binary.LittleEndian.Uint32(rh[4:8])
		caplen := binary.LittleEndian.Uint32(rh[8:12])
		if caplen > pcapSnapLen {
			return nil, fmt.Errorf("trace: record length %d exceeds snaplen", caplen)
		}
		data := make([]byte, caplen)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, ErrPcapTruncated
		}
		out = append(out, PcapRecord{
			Ts:   time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Data: data,
		})
	}
}

// ReadPcapFile reads every record of the capture at path.
func ReadPcapFile(path string) ([]PcapRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPcap(f)
}

// CapturePaths taps both links of each path into w: every segment a link
// accepts is encoded through the wire codec and recorded, stamped with the
// time now() reports (the owning simulator's clock). Taps only observe —
// they never mutate or retain the segment — so capture cannot change
// simulation results. This is the one place the tap wiring lives; every
// experiments.World with a capture goes through it.
func CapturePaths(w *PcapWriter, now func() time.Duration, paths ...*netem.Path) {
	for _, p := range paths {
		for _, l := range []*netem.Link{p.LinkAB(), p.LinkBA()} {
			// Chain rather than replace any hook already installed, so
			// multiple taps (or unrelated OnTransmit users) compose instead
			// of silently discarding each other.
			prev := l.OnTransmit
			l.OnTransmit = func(seg *packet.Segment) {
				if prev != nil {
					prev(seg)
				}
				w.WriteSegment(now(), seg)
			}
		}
	}
}
