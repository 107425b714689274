package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"mptcpgo"
)

// A workload is one fixed scenario, built and run through the public facade
// only. The seed reaches the program through the facade builders and nowhere
// else; iters is the timed iteration count of a full `run` (both passes).
type workload struct {
	name  string
	iters int
	// loop says whether load is open (arrivals on a schedule, latency timed
	// from the scheduled arrival) or closed (a fixed set of transfers).
	loop string
	why  string
	run  func(seed uint64, quick bool, telem *mptcpgo.Telemetry, sp *spanLog, parent int) (*outcome, error)
}

// outcome is what one iteration hands back: the digest of the result bytes,
// the sim-time end-to-end metrics the scenario carries, and exact counts read
// from the result for the per-layer table.
type outcome struct {
	digest string
	sim    map[string]float64
	counts map[string]float64
}

var workloads = []workload{
	{
		name: "churn", iters: 40, loop: "open",
		why: "64 hosts, 1000 short 16 KiB flows/s: per-connection cost (handshake, keys, queue growth from nil, struct churn, GC) dominates",
		run: runChurn,
	},
	{
		name: "bulk", iters: 16, loop: "closed",
		why: "one 2-subflow upload over 1G+100M for 2 s: set-up is nil, the per-segment data path and reassembly across unequal RTTs do all the work",
		run: runBulk,
	},
	{
		name: "corelink", iters: 28, loop: "open",
		why: "256 hosts, webmix sizes, overloaded 100 Mbps shared core: epoch-stepped coupled runner, capacity allocator, heavy tails and the RTO drain",
		run: runCorelink,
	},
	{
		name: "chaos", iters: 24, loop: "closed",
		why: "64 uploads under flap500 faults and an RST adversary: faults, middlebox, reinjection and the integrity checker, used nowhere else",
		run: runChaos,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale shrinks a scenario size for -quick smoke runs (never for reported
// numbers).
func scale(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

// digestResult hashes the facade result's JSON with the wall-clock field
// zeroed: two runs of one simulation agree on every byte of it.
func digestResult(res *mptcpgo.Result) (string, error) {
	res.Elapsed = 0
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// totals reads the merged ("all") row of a result table as column → value.
func totals(res *mptcpgo.Result, table int) (map[string]float64, error) {
	if table >= len(res.Tables) {
		return nil, fmt.Errorf("result %s has %d tables, want table %d", res.ID, len(res.Tables), table)
	}
	t := res.Tables[table]
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("result %s table %d is empty", res.ID, table)
	}
	row := t.Rows[len(t.Rows)-1]
	out := make(map[string]float64, len(row))
	for i, col := range t.Columns {
		if i >= len(row) {
			break
		}
		if v, err := strconv.ParseFloat(row[i], 64); err == nil {
			out[col] = v
		}
	}
	return out, nil
}

// openLoopOutcome checks and reads an open-loop result (churn, corelink).
func openLoopOutcome(res *mptcpgo.Result) (*outcome, error) {
	digest, err := digestResult(res)
	if err != nil {
		return nil, err
	}
	row, err := totals(res, 0)
	if err != nil {
		return nil, err
	}
	offered, done := row["offered"], row["done"]
	lost := row["dropped"] + row["shed"] + row["failed"] + row["open"]
	if done+lost != offered {
		return nil, fmt.Errorf("%s: done %v + lost %v != offered %v", res.ID, done, lost, offered)
	}
	if row["failed"] != 0 {
		return nil, fmt.Errorf("%s: %v flows failed", res.ID, row["failed"])
	}
	if offered == 0 || done == 0 {
		return nil, fmt.Errorf("%s: offered %v, done %v", res.ID, offered, done)
	}
	return &outcome{
		digest: digest,
		sim: map[string]float64{
			"sim_goodput_mbps": row["goodput Mbps"],
			"sim_p50_ms":       row["p50 ms"],
			"sim_p99_ms":       row["p99 ms"],
			"ok_share":         done / offered,
		},
		counts: map[string]float64{
			"sim.events":    row["events"],
			"flows.offered": offered,
			"flows.done":    done,
		},
	}, nil
}

func runChurn(seed uint64, quick bool, telem *mptcpgo.Telemetry, sp *spanLog, parent int) (*outcome, error) {
	b := mptcpgo.NewOpenLoop(seed).
		Hosts(scale(quick, 64, 16)).
		Rate(float64(scale(quick, 1000, 200))).
		SizeDist("fixed:16384").
		Window(time.Duration(scale(quick, 4000, 1000)) * time.Millisecond).
		FlowDeadline(3 * time.Second).
		Shards(4).Workers(2)
	if telem != nil {
		b.Telemetry(telem)
	}
	id := sp.begin("OpenLoop.Run", parent)
	res, err := b.Run()
	sp.end(id)
	if err != nil {
		return nil, err
	}
	return openLoopOutcome(res)
}

func runCorelink(seed uint64, quick bool, telem *mptcpgo.Telemetry, sp *spanLog, parent int) (*outcome, error) {
	b := mptcpgo.NewOpenLoop(seed).
		Hosts(scale(quick, 256, 32)).
		Rate(float64(scale(quick, 400, 60))).
		SizeDist("webmix").
		Window(time.Duration(scale(quick, 5000, 1000))*time.Millisecond).
		SharedBottleneck("core", float64(scale(quick, 100, 20)), nil).
		Shards(4).Workers(2)
	if telem != nil {
		b.Telemetry(telem)
	}
	id := sp.begin("OpenLoop.Run", parent)
	res, err := b.Run()
	sp.end(id)
	if err != nil {
		return nil, err
	}
	out, err := openLoopOutcome(res)
	if err != nil {
		return nil, err
	}
	link, err := totals(res, 1)
	if err != nil {
		return nil, err
	}
	if u := link["util %"]; u > 100 {
		return nil, fmt.Errorf("corelink: shared link utilisation %v%% > 100%%", u)
	}
	out.counts["capacity.epochs"] = link["epochs"]
	out.counts["capacity.congested_epochs"] = link["congested"]
	return out, nil
}

func runChaos(seed uint64, quick bool, telem *mptcpgo.Telemetry, sp *spanLog, parent int) (*outcome, error) {
	members := scale(quick, 64, 8)
	b := mptcpgo.NewChaos(seed).
		Members(members).
		Faults("flap500").
		Adversary("rst").
		Shards(4).Workers(2)
	if quick {
		b.TransferBytes(96 << 10)
	}
	if telem != nil {
		b.Telemetry(telem)
	}
	id := sp.begin("Chaos.Run", parent)
	res, err := b.Run()
	sp.end(id)
	if err != nil {
		return nil, err
	}
	digest, err := digestResult(res)
	if err != nil {
		return nil, err
	}
	row, err := totals(res, 0)
	if err != nil {
		return nil, err
	}
	m := float64(members)
	if row["ok"]+row["fallback"] != m || row["intact"] != m {
		return nil, fmt.Errorf("chaos: ok %v + fallback %v, intact %v, want %v members", row["ok"], row["fallback"], row["intact"], m)
	}
	bad := row["stalled"] + row["failed"] + m - row["intact"]
	return &outcome{
		digest: digest,
		sim:    map[string]float64{"ok_share": 1 - bad/m},
		counts: map[string]float64{
			"sim.events":         row["events"],
			"core.reinjections":  row["reinject"],
			"core.conn_rtx":      row["connRtx"],
			"core.fallbacks":     row["fallback"],
			"faults.flaps":       row["flaps"],
			"chaos.stall_epochs": row["stallEp"],
		},
	}, nil
}

// bulkPeriod is the length of the repeating payload pattern. It is prime, so
// a byte that arrives at the wrong stream offset does not match.
const bulkPeriod = 65521

// bulkPattern returns two periods of a seeded byte pattern, so any window of
// up to one period starting at offset%bulkPeriod is one contiguous slice.
func bulkPattern(seed uint64) []byte {
	p := make([]byte, 2*bulkPeriod)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := 0; i < bulkPeriod; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x >> 32)
	}
	copy(p[bulkPeriod:], p[:bulkPeriod])
	return p
}

func runBulk(seed uint64, quick bool, _ *mptcpgo.Telemetry, sp *spanLog, parent int) (*outcome, error) {
	span := time.Duration(scale(quick, 2000, 100)) * time.Millisecond
	id := sp.begin("Topology.Build", parent)
	net, err := mptcpgo.NewTopology(seed).
		Connect("client", "server", mptcpgo.SymmetricLink("1g", 1000, 500*time.Microsecond, 256<<10)).
		Connect("client", "server", mptcpgo.SymmetricLink("100m", 100, 10*time.Millisecond, 128<<10)).
		Build()
	sp.end(id)
	if err != nil {
		return nil, err
	}
	cfg := mptcpgo.DefaultConfig()
	cfg.SendBufBytes = 2 << 20
	cfg.RecvBufBytes = 2 << 20

	pattern := bulkPattern(seed)
	var (
		server   *mptcpgo.Conn
		received uint64
		corrupt  bool
	)
	buf := make([]byte, 32<<10)
	id = sp.begin("Network.Listen", parent)
	_, err = net.Listen("server", 80, cfg, func(c *mptcpgo.Conn) {
		server = c
		c.OnReadable = func() {
			for {
				n := c.ReadInto(buf)
				if n == 0 {
					return
				}
				at := int(received % bulkPeriod)
				if !bytes.Equal(buf[:n], pattern[at:at+n]) {
					corrupt = true
				}
				received += uint64(n)
			}
		}
	})
	sp.end(id)
	if err != nil {
		return nil, err
	}

	id = sp.begin("Network.Dial", parent)
	client, err := net.Dial("client", "server:80", mptcpgo.WithConfig(cfg))
	sp.end(id)
	if err != nil {
		return nil, err
	}
	var sent uint64
	fill := func() {
		for {
			at := int(sent % bulkPeriod)
			n := client.Write(pattern[at : at+32<<10])
			if n == 0 {
				return
			}
			sent += uint64(n)
		}
	}
	client.OnEstablished = fill
	client.OnWritable = fill

	id = sp.begin("Network.Run", parent)
	err = net.Run(span)
	sp.end(id)
	if err != nil {
		return nil, err
	}

	switch {
	case server == nil:
		return nil, fmt.Errorf("bulk: server accepted no connection")
	case corrupt:
		return nil, fmt.Errorf("bulk: received bytes do not match the sent pattern")
	case received == 0:
		return nil, fmt.Errorf("bulk: nothing delivered")
	case !server.MPTCPActive() || len(server.Subflows()) != 2:
		return nil, fmt.Errorf("bulk: want MPTCP on 2 subflows, got active=%v subflows=%d", server.MPTCPActive(), len(server.Subflows()))
	}

	out := &outcome{
		sim: map[string]float64{
			"sim_goodput_mbps": float64(received) * 8 / span.Seconds() / 1e6,
			"ok_share":         1,
		},
		counts: bulkCounts(net, client, server),
	}
	// bulk has no facade Result; its digest covers the seed (which sets the
	// payload pattern) and every exact count.
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d received=%d sent=%d", seed, received, sent)
	for _, k := range sortedKeys(out.counts) {
		fmt.Fprintf(h, " %s=%v", k, out.counts[k])
	}
	out.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return out, nil
}

// bulkCounts reads the exact per-layer counts of a finished bulk transfer:
// link and simulator statistics through Network.Internal(), TCP statistics of
// the sender's subflows, and connection-level statistics of both ends.
func bulkCounts(net *mptcpgo.Network, client, server *mptcpgo.Conn) map[string]float64 {
	inner := net.Internal()
	var sent, drops uint64
	for _, p := range inner.Paths {
		ab, ba := p.LinkAB().Stats(), p.LinkBA().Stats()
		sent += ab.SentPackets + ba.SentPackets
		drops += ab.DroppedQueue + ba.DroppedQueue
	}
	var tx, rtx, timeouts, rx uint64
	for _, sf := range client.Subflows() {
		st := sf.Endpoint().Stats()
		tx += st.SegmentsSent
		rtx += st.Retransmissions
		timeouts += st.Timeouts
	}
	for _, sf := range server.Subflows() {
		rx += sf.Endpoint().Stats().SegmentsReceived
	}
	cs := client.Stats()
	return map[string]float64{
		"sim.events":            float64(inner.Hosts[0].Sim().Processed),
		"netem.segments":        float64(sent),
		"netem.queue_drops":     float64(drops),
		"tcp.segments_sent":     float64(tx),
		"tcp.retransmissions":   float64(rtx),
		"tcp.timeouts":          float64(timeouts),
		"tcp.segments_received": float64(rx),
		"buffer.ofo_steps":      float64(server.ReassemblySteps()),
		"core.reinjections":     float64(cs.Reinjections),
		"core.conn_rtx":         float64(cs.ConnLevelRtx),
		"core.fallbacks":        float64(cs.Fallbacks + server.Stats().Fallbacks),
	}
}
