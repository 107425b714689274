package main

import (
	"time"

	"mptcpgo/internal/cc"
)

var ccDrivers = []driver{
	{ns: "cc.coupled_onack_ns", ops: 4_000_000, run: ccCoupledOnAck},
}

// ccCoupledOnAck feeds ACKs to two coupled controllers of one connection,
// alternating subflows with unequal RTTs: the linked-increase computation
// (alpha over both windows) that runs on every ACK of every MPTCP subflow.
func ccCoupledOnAck(n int) (int, error) {
	g := cc.NewCoupledGroup()
	fast := g.NewController(cc.Config{MSS: 1460})
	slow := g.NewController(cc.Config{MSS: 1460})
	for i := 0; i < n; i += 2 {
		fast.OnAck(1460, time.Millisecond)
		slow.OnAck(1460, 20*time.Millisecond)
	}
	return n, nil
}
