package main

import (
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
)

var packetDrivers = []driver{
	{ns: "packet.encode_decode_ns", ops: 200_000, run: packetEncodeDecode},
	{ns: "packet.checksum_1460_ns", ops: 1_000_000, run: packetChecksum},
	{ns: "packet.segment_cycle_ns", allocs: "packet.segment_cycle_allocs", ops: 1_000_000, run: packetSegmentCycle},
}

// packetEncodeDecode is one wire round trip of a full-size data segment with
// timestamps and a DSS mapping: Encode, Decode, release both.
func packetEncodeDecode(n int) (int, error) {
	seg := &packet.Segment{
		Src: driverSrc, Dst: driverDst,
		Seq: 12345, Ack: 67890,
		Flags:  packet.FlagACK | packet.FlagPSH,
		Window: 65535,
		Options: []packet.Option{
			&packet.TimestampsOption{Val: 1, Echo: 2},
			&packet.DSSOption{HasDataACK: true, DataACK: 1000, HasMapping: true, DataSeq: 2000, SubflowOffset: 3000, Length: 1460, HasChecksum: true, Checksum: 0xbeef},
		},
		Payload: make([]byte, 1460),
	}
	for i := 0; i < n; i++ {
		wire, err := packet.Encode(seg)
		if err != nil {
			return 0, err
		}
		dec, err := packet.Decode(seg.Src.Addr, seg.Dst.Addr, wire)
		if err != nil {
			return 0, err
		}
		dec.Release()
		packet.ReleaseWire(wire)
	}
	return n, nil
}

// checksumSink keeps the compiler from dropping the checksum loop.
var checksumSink uint16

// packetChecksum sums one MSS of payload, the per-byte cost of Figure 3.
func packetChecksum(n int) (int, error) {
	buf := make([]byte, 1460)
	for i := range buf {
		buf[i] = byte(i)
	}
	var sum uint16
	for i := 0; i < n; i++ {
		sum ^= packet.Checksum(buf)
	}
	checksumSink = sum
	return n, nil
}

// packetSegmentCycle is the per-hop life of a data segment: take one from
// the pool, add a DSS mapping from its arena, attach a pooled payload,
// release it.
func packetSegmentCycle(n int) (int, error) {
	for i := 0; i < n; i++ {
		seg := packet.NewSegment()
		seg.Src, seg.Dst = driverSrc, driverDst
		seg.Seq = packet.SeqNum(i)
		dss := seg.AppendDSS()
		dss.HasMapping, dss.DataSeq, dss.Length = true, packet.DataSeq(i), 1460
		seg.AttachPayload(pool.Bytes(1460))
		seg.Release()
	}
	return n, nil
}
