package main

import (
	"fmt"

	"mptcpgo/internal/core"
	"mptcpgo/internal/httpsim"
)

var httpsimDrivers = []driver{
	{ns: "httpsim.request_ns", allocs: "httpsim.request_allocs", ops: 2_000, run: httpsimRequest},
}

// httpsimRequest has one closed-loop client fetch 1 KB responses, a new
// connection per request: what each flow of the fleet workloads costs above
// the connection itself.
func httpsimRequest(n int) (int, error) {
	s, net, client, server := corePair()
	cfg := core.DefaultConfig()
	if _, err := httpsim.StartServer(server, httpsim.ServerConfig{Port: 80, Conn: cfg}); err != nil {
		return 0, err
	}
	p, err := httpsim.NewClientPool(client, httpsim.ClientPoolConfig{
		Clients:       1,
		TotalRequests: n,
		TransferSize:  1024,
		ServerAddr:    net.ServerAddr(0),
		ServerPort:    80,
		Conn:          cfg,
	})
	if err != nil {
		return 0, err
	}
	p.Start()
	for !p.Done() {
		if !s.Step() {
			return 0, fmt.Errorf("client pool stalled")
		}
	}
	res := p.Result()
	if res.Completed != n || res.Failed != 0 {
		return 0, fmt.Errorf("%d of %d requests completed, %d failed", res.Completed, n, res.Failed)
	}
	return res.Completed, nil
}
