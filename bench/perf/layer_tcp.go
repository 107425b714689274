package main

import (
	"fmt"
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/tcp"
)

var tcpDrivers = []driver{
	{ns: "tcp.handshake_close_ns", allocs: "tcp.handshake_close_allocs", ops: 10_000, run: tcpHandshakeClose},
	{ns: "tcp.stream_ns_per_seg", allocs: "tcp.stream_allocs_per_seg", ops: 8 * streamSegments, run: tcpStream},
}

// streamSegments is about how many full segments carry streamBytes.
const (
	streamBytes    = 4 << 20
	streamSegments = streamBytes / 1460
)

// fastPath is a 1 Gbps, 200 µs RTT path: set-up and per-segment work, no
// waiting on the wire.
func fastPath(name string) netem.PathSpec {
	return netem.Symmetric(name, netem.Gbps(1), 100*time.Microsecond, 512<<10, 0)
}

// tcpHandshakeClose opens and closes plain TCP connections one after
// another over a fast link: SYN exchange, endpoint construction on both
// sides, FIN exchange. One operation is one connection.
func tcpHandshakeClose(n int) (int, error) {
	s := sim.New(1)
	net := netem.Build(s, fastPath("drv"))
	closed := 0
	_, err := tcp.Listen(net.Server, 80, tcp.Config{}, func(ep *tcp.Endpoint, _ *packet.Segment) {
		done := false
		ep.OnReadable = func() {
			if ep.EOF() && !done {
				done = true
				ep.Close()
				closed++
			}
		}
	})
	if err != nil {
		return 0, err
	}
	remote := packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}
	for i := 0; i < n; i++ {
		ep, err := tcp.Dial(net.Client.Interfaces()[0], remote, tcp.Config{}, nil)
		if err != nil {
			return 0, err
		}
		ep.OnEstablished = ep.Close
		if err := s.RunFor(5 * time.Millisecond); err != nil {
			return 0, err
		}
	}
	if closed != n {
		return 0, fmt.Errorf("%d of %d connections closed", closed, n)
	}
	return closed, nil
}

// tcpStream sends n full segments' worth of bytes over one connection and
// reports per segment sent: send queue, segmentation, ACK clocking,
// congestion control and in-order delivery, with no MPTCP above it.
func tcpStream(n int) (int, error) {
	s := sim.New(1)
	net := netem.Build(s, fastPath("drv"))
	total := n * 1460
	received := 0
	cfg := tcp.Config{SendBufBytes: 512 << 10, RecvBufBytes: 512 << 10}
	_, err := tcp.Listen(net.Server, 80, cfg, func(ep *tcp.Endpoint, _ *packet.Segment) {
		ep.OnReadable = func() {
			for {
				data := ep.Read(64 << 10)
				if len(data) == 0 {
					return
				}
				received += len(data)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	client, err := tcp.Dial(net.Client.Interfaces()[0], packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		return 0, err
	}
	chunk := make([]byte, 32<<10)
	sent := 0
	pump := func() {
		for sent < total {
			w := client.Write(chunk[:min(len(chunk), total-sent)])
			if w == 0 {
				return
			}
			sent += w
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	for received < total {
		if !s.Step() {
			return 0, fmt.Errorf("stream stalled at %d of %d bytes", received, total)
		}
	}
	return int(client.Stats().SegmentsSent), nil
}
