package mptcpgo_test

import (
	"fmt"
	"log"
	"os"
	"time"

	mptcp "mptcpgo"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/packet"
)

// Example builds an emulated phone with a WiFi and a 3G interface, opens an
// MPTCP connection as an ordinary io.ReadWriteCloser, transfers one megabyte
// and prints what happened: whether multipath was negotiated, how many
// subflows were opened and the goodput.
func Example() {
	// A phone with a WiFi interface (8 Mbps) and a 3G interface (2 Mbps),
	// talking to a dual-homed server.
	net, err := mptcp.NewTopology(1).
		Connect("phone", "server", mptcp.WiFiLink()).
		Connect("phone", "server", mptcp.ThreeGLink()).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	const total = 1 << 20

	// Server: read everything, close when the peer is done.
	received := 0
	var done time.Duration
	_, err = net.Listen("server", 80, mptcp.DefaultConfig(), func(c *mptcp.Conn) {
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
			}
			if received >= total && done == 0 {
				done = net.Now()
			}
			if c.EOF() {
				c.Close()
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// Client: an unmodified "application" writing to a standard byte
	// stream. Stream drives the deterministic simulation under the hood, so
	// plain blocking-style code works unchanged.
	stream, err := net.DialStream("phone", "server:80")
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, 32<<10)
	for sent := 0; sent < total; sent += len(payload) {
		if _, err := stream.Write(payload); err != nil {
			log.Fatal(err)
		}
	}
	if err := stream.Close(); err != nil {
		log.Fatal(err)
	}

	// Let the close handshake finish.
	if err := net.Run(30 * time.Second); err != nil {
		log.Fatal(err)
	}

	conn := stream.Conn()
	fmt.Println("1 MB transfer over WiFi + 3G")
	fmt.Printf("  multipath negotiated: %v\n", conn.MPTCPActive())
	fmt.Printf("  subflows opened:      %d\n", conn.Stats().SubflowsOpened)
	fmt.Printf("  bytes delivered:      %d\n", received)
	fmt.Printf("  completed at:         %v (%.2f Mbps)\n", done, float64(total)*8/done.Seconds()/1e6)
	fmt.Printf("  connection closed:    %v (err=%v)\n", conn.Closed(), conn.Err())
	// Output:
	// 1 MB transfer over WiFi + 3G
	//   multipath negotiated: true
	//   subflows opened:      2
	//   bytes delivered:      1048576
	//   completed at:         3.018396s (2.78 Mbps)
	//   connection closed:    true (err=<nil>)
}

// ExampleConfig compares the three starting configurations on the paper's
// motivating phone: a bulk download over WiFi + 3G with 200 KB buffers, by
// single-path TCP over either radio, by "regular MPTCP" and by MPTCP with
// the paper's opportunistic retransmission and penalization
// (DefaultConfig). The last run fails the WiFi link 10 s in, and the
// connection carries on over the 3G subflow.
func ExampleConfig() {
	run := func(name string, cfg mptcp.Config, iface int, failWiFi bool) {
		cfg.SendBufBytes = 200 << 10
		cfg.RecvBufBytes = 200 << 10

		net, err := mptcp.NewTopology(7).
			Connect("phone", "server", mptcp.WiFiLink()).
			Connect("phone", "server", mptcp.ThreeGLink()).
			Build()
		if err != nil {
			log.Fatal(err)
		}

		received := 0
		_, err = net.Listen("server", 80, cfg, func(c *mptcp.Conn) {
			c.OnReadable = func() {
				for {
					data := c.Read(64 << 10)
					if len(data) == 0 {
						break
					}
					received += len(data)
				}
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		conn, err := net.Dial("phone", "server:80", mptcp.WithConfig(cfg), mptcp.WithInterface(iface))
		if err != nil {
			log.Fatal(err)
		}
		payload := make([]byte, 32<<10)
		pump := func() {
			for conn.Write(payload) > 0 {
			}
		}
		conn.OnEstablished = pump
		conn.OnWritable = pump

		if failWiFi {
			net.Schedule(10*time.Second, func() { _ = net.SetLinkDown("wifi", true) })
		}

		// Goodput from 5 s to 25 s, past slow start.
		const warmup = 5 * time.Second
		const duration = 25 * time.Second
		if err := net.RunUntil(warmup); err != nil {
			log.Fatal(err)
		}
		start := received
		if err := net.RunUntil(duration); err != nil {
			log.Fatal(err)
		}
		rate := float64(received-start) * 8 / (duration - warmup).Seconds() / 1e6
		fmt.Printf("  %-24s %5.2f Mbps, subflows=%d, mptcp=%v\n",
			name, rate, len(conn.Subflows()), conn.MPTCPActive())
	}

	fmt.Println("WiFi (8 Mbps, 20ms) + 3G (2 Mbps, 150ms, bufferbloated), 200 KB buffers")
	run("TCP over WiFi", mptcp.TCPConfig(), 0, false)
	run("TCP over 3G", mptcp.TCPConfig(), 1, false)
	run("regular MPTCP", mptcp.RegularMPTCPConfig(), 0, false)
	run("MPTCP + M1,2 (paper)", mptcp.DefaultConfig(), 0, false)
	run("MPTCP + M1,2, WiFi dies", mptcp.DefaultConfig(), 0, true)
	// Output:
	// WiFi (8 Mbps, 20ms) + 3G (2 Mbps, 150ms, bufferbloated), 200 KB buffers
	//   TCP over WiFi             6.99 Mbps, subflows=1, mptcp=false
	//   TCP over 3G               1.91 Mbps, subflows=1, mptcp=false
	//   regular MPTCP             3.00 Mbps, subflows=2, mptcp=true
	//   MPTCP + M1,2 (paper)      8.27 Mbps, subflows=2, mptcp=true
	//   MPTCP + M1,2, WiFi dies   2.83 Mbps, subflows=2, mptcp=true
}

// ExampleTopology_Connect runs the deployability half of the paper: a 2 MB
// transfer over WiFi + 3G whose paths cross NATs, sequence-number
// rewriters, option-stripping firewalls, resegmenting NICs and
// payload-modifying ALGs. The connection keeps multipath, falls back to
// regular TCP or resets the affected subflow, and the application's byte
// stream arrives intact in every case. Connect attaches a middlebox chain
// to the link it adds.
func ExampleTopology_Connect() {
	run := func(name string, wifiBoxes, threeGBoxes []mptcp.Box) {
		net, err := mptcp.NewTopology(11).
			Connect("client", "server", mptcp.WiFiLink(), wifiBoxes...).
			Connect("client", "server", mptcp.ThreeGLink(), threeGBoxes...).
			Build()
		if err != nil {
			log.Fatal(err)
		}

		cfg := mptcp.DefaultConfig()
		cfg.SendBufBytes = 256 << 10
		cfg.RecvBufBytes = 256 << 10

		const total = 2 << 20
		received := 0
		_, err = net.Listen("server", 80, cfg, func(c *mptcp.Conn) {
			c.OnReadable = func() {
				for {
					data := c.Read(64 << 10)
					if len(data) == 0 {
						break
					}
					received += len(data)
				}
				if c.EOF() {
					c.Close()
				}
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		conn, err := net.Dial("client", "server:80", mptcp.WithConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		payload := make([]byte, 32<<10)
		sent := 0
		pump := func() {
			for sent < total {
				w := conn.Write(payload[:min(len(payload), total-sent)])
				if w == 0 {
					return
				}
				sent += w
			}
			conn.Close()
		}
		conn.OnEstablished = pump
		conn.OnWritable = pump

		if err := net.Run(60 * time.Second); err != nil {
			log.Fatal(err)
		}
		status := "delivered"
		if received < total {
			status = fmt.Sprintf("INCOMPLETE (%d of %d bytes)", received, total)
		}
		fmt.Printf("  %-34s %-9s multipath=%v subflows-opened=%d\n",
			name, status, conn.MPTCPActive(), conn.Stats().SubflowsOpened)
	}

	fmt.Println("2 MB transfer over WiFi + 3G through various middleboxes:")
	run("clean paths", nil, nil)
	run("NAT on the WiFi path",
		[]mptcp.Box{middlebox.NewNAT(packet.MakeAddr(100, 64, 9, 1), true)}, nil)
	run("sequence-number rewriting firewall",
		[]mptcp.Box{middlebox.NewSeqRewriter(0)}, nil)
	run("firewall strips MPTCP from SYNs",
		[]mptcp.Box{middlebox.NewOptionStripper(true)},
		[]mptcp.Box{middlebox.NewOptionStripper(true)})
	run("TSO-style resegmentation (536B)",
		[]mptcp.Box{middlebox.NewSplitter(536)}, nil)
	run("payload-modifying ALG",
		[]mptcp.Box{middlebox.NewPayloadCorrupter(300)}, nil)
	// Output:
	// 2 MB transfer over WiFi + 3G through various middleboxes:
	//   clean paths                        delivered multipath=true subflows-opened=2
	//   NAT on the WiFi path               delivered multipath=true subflows-opened=2
	//   sequence-number rewriting firewall delivered multipath=true subflows-opened=2
	//   firewall strips MPTCP from SYNs    delivered multipath=false subflows-opened=1
	//   TSO-style resegmentation (536B)    delivered multipath=true subflows-opened=2
	//   payload-modifying ALG              delivered multipath=true subflows-opened=2
}

// ExampleTopology builds a star: 32 clients, each on its own access link
// with a different rate, RTT and queue, dial one server at once and stream
// data for 10 simulated seconds. The fan-in is one loop over hosts.
func ExampleTopology() {
	const clients = 32
	const duration = 10 * time.Second

	topo := mptcp.NewTopology(17).AddHost("server")
	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("client%d", i)
		// Rates from 2 to 9.5 Mbps, RTTs from 10 to 190 ms, and a queue of
		// about 250 ms at the link's rate.
		rate := 2.0 + 0.5*float64(i%16)
		rtt := time.Duration(10+20*(i%10)) * time.Millisecond
		queue := int(rate * 1e6 / 8 * 0.250)
		topo.Connect(names[i], "server", mptcp.SymmetricLink(fmt.Sprintf("access%d", i), rate, rtt, queue))
	}
	net, err := topo.Build()
	if err != nil {
		log.Fatal(err)
	}

	cfg := mptcp.DefaultConfig()
	cfg.SendBufBytes = 128 << 10
	cfg.RecvBufBytes = 128 << 10
	// One access link per client: nothing useful to advertise back.
	cfg.AdvertiseAddresses = false

	received := 0
	if _, err := net.Listen("server", 80, cfg, func(c *mptcp.Conn) {
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
			}
		}
	}); err != nil {
		log.Fatal(err)
	}

	payload := make([]byte, 16<<10)
	for _, name := range names {
		conn, err := net.Dial(name, "server:80", mptcp.WithConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		pump := func() {
			for conn.Write(payload) > 0 {
			}
		}
		conn.OnEstablished = pump
		conn.OnWritable = pump
	}

	if err := net.Run(duration); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d clients -> 1 server over heterogeneous access links, %v simulated\n", clients, duration)
	fmt.Printf("  aggregate delivered: %d bytes (%.2f Mbps)\n", received, float64(received)*8/duration.Seconds()/1e6)
	// Output:
	// 32 clients -> 1 server over heterogeneous access links, 10s simulated
	//   aggregate delivered: 199450328 bytes (159.56 Mbps)
}

// ExampleNewFleet runs the sharded fleet engine: 256 MPTCP phones on the
// stock mix of access links and 64 plain-TCP clients on gigabit links send
// closed-loop requests to sharded server replicas. The merged result does
// not depend on the worker count.
func ExampleNewFleet() {
	res, err := mptcp.NewFleet(17).
		Group(mptcp.ClientGroup{
			Name:         "phone",
			Clients:      256,
			Requests:     2,
			TransferSize: 32 << 10,
		}).
		Group(mptcp.ClientGroup{
			Name:    "wired",
			Clients: 64,
			Link: func(i int) mptcp.Link {
				return mptcp.SymmetricLink(fmt.Sprintf("wired%d", i), 1000, 2*time.Millisecond, 256<<10)
			},
			Requests:     4,
			TransferSize: 128 << 10,
			TCPOnly:      true,
		}).
		Workers(4).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Text(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// # fleet-http — sharded closed-loop HTTP server workload
	//
	// == 320 closed-loop clients across 5 shards ==
	//   shard  clients  completed  failed  req/s   mean ms  p95 ms  MB     events
	//   0      64       128        0       100.1   328.09   597.33  4.00   15340
	//   1      64       128        0       103.3   342.76   596.87  4.00   15285
	//   2      64       128        0       100.1   339.30   597.33  4.00   15305
	//   3      64       128        0       100.1   335.46   597.33  4.00   15334
	//   4      64       256        0       6222.8  10.28    10.29   32.00  96958
	//   all    320      768        0       600.5   227.70   593.29  48.00  158222
}

// ExampleNewOpenLoop runs the open-loop workload engine: a fleet-wide
// Poisson process injects flows with bounded-Pareto sizes across 48 hosts
// on heterogeneous access links. The offered rate is past the fleet's
// capacity, so the overload shows in the latency tail and the drops.
func ExampleNewOpenLoop() {
	res, err := mptcp.NewOpenLoop(23).
		Hosts(48).
		Rate(600).
		SizeDist("pareto:1.2,4096,1048576").
		Window(3 * time.Second).
		FlowDeadline(4 * time.Second).
		Shards(4).
		Workers(4).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Text(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// # fleet-openloop — open-loop HTTP workload: poisson(600.0/s) arrivals, pareto(1.20, 4.0KB..1.0MB) sizes
	//
	// == 48 arrival hosts across 4 shards, 3s window ==
	//   shard  hosts  offered  done  dropped  shed  failed  open  offered Mbps  goodput Mbps  p50 ms  p99 ms   events
	//   0      12     433      433   0        0     0       0     25.34         16.51         268.74  1489.76  40417
	//   1      12     427      426   1        0     0       0     19.72         9.35          193.86  924.75   33019
	//   2      12     452      452   0        0     0       0     19.91         11.99         277.40  1069.17  35059
	//   3      12     428      428   0        0     0       0     15.50         13.40         271.53  803.04   29055
	//   all    48     1740     1739  1        0     0       0     80.47         41.21         265.71  1079.00  137550
	//   note: open-loop: arrivals are injected by the process regardless of completions; dropped = hit the 4s flow deadline, shed = refused at the in-flight cap, open = still in flight at the simulation deadline
}
