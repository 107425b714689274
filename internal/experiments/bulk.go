package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/trace"
)

// BulkOptions describes one bulk-transfer run: a topology, a pair of
// connection configurations and a measurement window. Every buffer-sweep
// figure (4, 5, 6, 9) and the latency figure (7) is a set of such runs.
type BulkOptions struct {
	Seed  uint64
	Specs []netem.PathSpec
	// Boxes installs middlebox chains per path index.
	Boxes map[int][]netem.Box

	// Config configures both ends: the client's dial and the server's listen.
	Config core.Config
	// ClientIface selects which client interface the initial subflow (or the
	// single-path TCP connection) is dialed from.
	ClientIface int

	// Warmup is excluded from goodput/throughput/memory measurements.
	Warmup time.Duration
	// Duration is the total simulated run length.
	Duration time.Duration

	// MemorySampling records sender/receiver memory every
	// memorySampleInterval.
	MemorySampling bool

	// BlockSize, when non-zero, makes the sender write timestamped blocks of
	// this size and records application-level per-block latency (Figure 7).
	BlockSize int

	// HostCPU, when set, installs the host packet-processing cost model on
	// both hosts (Figure 3's per-packet and software-checksum costs).
	HostCPU *netem.CPUModel
}

// BulkResult summarises one bulk-transfer run.
type BulkResult struct {
	GoodputMbps    float64
	ThroughputMbps float64
	TotalReceived  int

	SenderMemMeanKB   float64
	ReceiverMemMeanKB float64

	// AppDelayMs holds each post-warmup block's application-level delay in
	// milliseconds, in delivery order (BlockSize runs only).
	AppDelayMs []float64

	MPTCPActive       bool
	ClientStats       core.ConnStats
	ServerStats       core.ConnStats
	ReassemblySteps   uint64
	SegmentsDelivered uint64
	Subflows          int
}

// memorySampleInterval is the cadence of BulkOptions.MemorySampling.
const memorySampleInterval = 50 * time.Millisecond

// RunBulk executes one bulk-transfer run and returns its measurements.
func RunBulk(opt BulkOptions) (BulkResult, error) { return runBulk(opt, Options{}, "") }

// runBulk is RunBulk with obs's observers attached, their files named name.
func runBulk(opt BulkOptions, obs Options, name string) (BulkResult, error) {
	if opt.Duration <= 0 {
		opt.Duration = 20 * time.Second
	}
	if opt.Warmup <= 0 || opt.Warmup >= opt.Duration {
		opt.Warmup = opt.Duration / 5
	}

	spec := netem.TwoHostSpec(opt.Specs...)
	for idx, boxes := range opt.Boxes {
		if idx < 0 || idx >= len(spec.Links) {
			return BulkResult{}, fmt.Errorf("bulk: box index %d out of range", idx)
		}
		spec.Links[idx].Boxes = boxes
	}
	if opt.ClientIface < 0 || opt.ClientIface >= len(spec.Links) {
		return BulkResult{}, fmt.Errorf("bulk: client interface %d out of range", opt.ClientIface)
	}
	w, err := NewWorld(opt.Seed, spec, obs.PcapDir, obs.Trace, name, 0, 1)
	if err != nil {
		return BulkResult{}, err
	}
	defer w.Close()
	w.Managers["client"].SetProbe(w.Probe, 0)
	s, net := w.Sim, w.Net
	if opt.HostCPU != nil {
		net.Client.CPU = *opt.HostCPU
		net.Server.CPU = *opt.HostCPU
	}
	// The run ends at a fixed simulated Duration, so the sampler never needs
	// a completion signal; unprocessed ticks past it are dropped.
	w.Probe.StartSampler(func() bool { return false })

	received := 0
	var serverConn *core.Connection
	var blockDelays []float64
	var blockStarts []time.Duration

	_, err = w.Managers["server"].Listen(80, opt.Config, func(c *core.Connection) {
		serverConn = c
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				prev := received
				received += len(data)
				if opt.BlockSize > 0 {
					for blk := prev/opt.BlockSize + 1; blk <= received/opt.BlockSize; blk++ {
						idx := blk - 1
						if idx < len(blockStarts) && s.Now() >= opt.Warmup {
							blockDelays = append(blockDelays, float64(s.Now()-blockStarts[idx])/float64(time.Millisecond))
						}
					}
				}
			}
		}
	})
	if err != nil {
		return BulkResult{}, err
	}

	ifaces := net.Client.Interfaces()
	serverAddr := net.ServerAddr(opt.ClientIface)
	conn, err := w.Managers["client"].Dial(ifaces[opt.ClientIface], packet.Endpoint{Addr: serverAddr, Port: 80}, opt.Config)
	if err != nil {
		return BulkResult{}, err
	}

	// Unbounded source: keep the connection's send buffer full.
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	written := 0
	pump := func() {
		for {
			n := len(payload)
			if opt.BlockSize > 0 {
				// Align writes to block boundaries so block start times are
				// recorded exactly when a block's first byte is accepted.
				n = opt.BlockSize - written%opt.BlockSize
				if n > len(payload) {
					n = len(payload)
				}
			}
			w := conn.Write(payload[:n])
			if w == 0 {
				return
			}
			if opt.BlockSize > 0 {
				// Record the start time of every block whose first byte was
				// accepted by this write.
				first := written / opt.BlockSize
				if written%opt.BlockSize != 0 {
					first++
				}
				last := (written + w - 1) / opt.BlockSize
				for blk := first; blk <= last; blk++ {
					for len(blockStarts) <= blk {
						blockStarts = append(blockStarts, s.Now())
					}
				}
			}
			written += w
		}
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump

	// Memory samplers.
	var sndMem, rcvMem []float64
	if opt.MemorySampling {
		var sample func()
		sample = func() {
			if s.Now() >= opt.Warmup {
				sndMem = append(sndMem, float64(conn.SenderMemory())/1024)
				if serverConn != nil {
					rcvMem = append(rcvMem, float64(serverConn.ReceiverMemory())/1024)
				}
			}
			if s.Now() < opt.Duration {
				s.Schedule(memorySampleInterval, sample)
			}
		}
		s.Schedule(memorySampleInterval, sample)
	}

	// Warmup, then measure.
	if err := s.RunUntil(opt.Warmup); err != nil {
		return BulkResult{}, err
	}
	baselineReceived := received
	baselineWire := forwardWireBytes(net)
	if err := s.RunUntil(opt.Duration); err != nil {
		return BulkResult{}, err
	}

	window := (opt.Duration - opt.Warmup).Seconds()
	res := BulkResult{
		TotalReceived:  received,
		GoodputMbps:    float64(received-baselineReceived) * 8 / window / 1e6,
		ThroughputMbps: float64(forwardWireBytes(net)-baselineWire) * 8 / window / 1e6,
		MPTCPActive:    conn.MPTCPActive(),
		ClientStats:    conn.Stats(),
		AppDelayMs:     blockDelays,
		Subflows:       len(conn.Subflows()),
	}
	if serverConn != nil {
		res.ServerStats = serverConn.Stats()
		res.ReassemblySteps = serverConn.ReassemblySteps()
		for _, sf := range serverConn.Subflows() {
			res.SegmentsDelivered += sf.Endpoint().Stats().SegmentsReceived
		}
	}
	if opt.MemorySampling {
		res.SenderMemMeanKB = trace.Mean(sndMem)
		res.ReceiverMemMeanKB = trace.Mean(rcvMem)
	}
	if err := finishPoint(&w, opt.Seed, obs, name); err != nil {
		return BulkResult{}, err
	}
	return res, nil
}

// forwardWireBytes sums the bytes delivered by the client-to-server links
// (wire-level throughput including retransmissions and duplicates).
func forwardWireBytes(n *netem.Network) uint64 {
	var total uint64
	for _, p := range n.Paths {
		total += p.LinkAB().Stats().DeliveredBytes
	}
	return total
}

// The configurations the figures compare, each with send and receive
// buffers of buf bytes.
func tcpBaseline(buf int) core.Config {
	cfg := core.TCPOnlyConfig()
	cfg.SendBufBytes = buf
	cfg.RecvBufBytes = buf
	return cfg
}

func regularMPTCP(buf int) core.Config {
	cfg := core.RegularMPTCPConfig()
	cfg.SendBufBytes = buf
	cfg.RecvBufBytes = buf
	return cfg
}

func mptcpM1(buf int) core.Config {
	cfg := core.RegularMPTCPConfig()
	cfg.OpportunisticRetransmit = true
	cfg.SendBufBytes = buf
	cfg.RecvBufBytes = buf
	return cfg
}

func mptcpM12(buf int) core.Config {
	cfg := core.RegularMPTCPConfig()
	cfg.OpportunisticRetransmit = true
	cfg.PenalizeSlowSubflows = true
	cfg.SendBufBytes = buf
	cfg.RecvBufBytes = buf
	return cfg
}

func mptcpM123(buf int) core.Config {
	cfg := mptcpM12(buf)
	cfg.AutoTuneBuffers = true
	return cfg
}

func mptcpM1234(buf int) core.Config {
	cfg := mptcpM123(buf)
	cfg.CwndCapping = true
	return cfg
}

func fmtMbps(v float64) string { return fmt.Sprintf("%.2f", v) }
