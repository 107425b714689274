package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// Figure 3: goodput over a 10 Gbps LAN as a function of the TCP maximum
// segment size, with DSS checksums enabled (computed in software, as in the
// paper's implementation) and disabled (checksum offload does the TCP
// checksum, the DSS checksum is simply not used).
//
// The paper's Xeon/10G testbed is replaced by the host CPU cost model in
// internal/netem: every packet is charged a fixed per-packet processing cost
// and, when DSS checksums are enabled, a per-byte cost measured from this
// build's actual ones-complement checksum implementation (see
// CalibrateChecksumCost).

func init() {
	Register(Experiment{
		ID:    "fig3",
		Title: "Fig. 3 — impact of DSS checksumming on 10G goodput vs MSS",
		Run:   runFig3,
	})
}

// CalibrateChecksumCost measures the per-byte cost of the DSS/TCP
// ones-complement checksum on this machine.
func CalibrateChecksumCost() time.Duration {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	const rounds = 64
	start := time.Now()
	var sink uint16
	for i := 0; i < rounds; i++ {
		sink ^= packet.Checksum(buf)
	}
	elapsed := time.Since(start)
	_ = sink
	perByte := elapsed / time.Duration(rounds*len(buf))
	if perByte <= 0 {
		perByte = time.Nanosecond
	}
	return perByte
}

// fig3PerPacketCost is the fixed per-packet processing cost of the host model
// (interrupt handling, protocol processing). It is chosen so that with the
// standard Ethernet MSS the 10G link cannot be filled — the regime the paper
// reports ("performance is limited by per-packet costs such as interrupt
// processing").
const fig3PerPacketCost = 2 * time.Microsecond

// PaperEraChecksumCost stands in for CalibrateChecksumCost when
// Options.PaperEraCPU is set: the per-byte ones-complement checksum cost of
// the paper's 2012-era testbed CPUs (a few hundred MB/s of checksum
// throughput), so the checksum-on curve keeps its distance from the offload
// curve even though this build's carry-chain checksum is ~7× faster than the
// one the cost model was originally calibrated against.
const PaperEraChecksumCost = 3 * time.Nanosecond

func runFig3(opt Options) (*Result, error) {
	msses := []int{1460, 2960, 4440, 5920, 7400, 8960}
	if opt.Quick {
		msses = []int{1460, 4440, 8960}
	}
	duration := 3 * time.Second
	warmup := 500 * time.Millisecond
	if opt.Quick {
		duration = 1 * time.Second
		warmup = 250 * time.Millisecond
	}

	perByte := CalibrateChecksumCost()
	costKind := "measured"
	if opt.PaperEraCPU {
		perByte = PaperEraChecksumCost
		costKind = "paper-era"
	}
	table := NewTable("Average goodput (Gbps) vs MSS on 2×10Gbps paths",
		"MSS (bytes)", "MPTCP - No Checksum", "MPTCP - Checksum")
	table.AddNote("host CPU model: %v per packet; %s checksum cost %v/byte (applied per payload byte at sender and receiver when DSS checksums are on)",
		fig3PerPacketCost, costKind, perByte)

	variants := []bool{false, true} // columns: (no checksum, checksum)
	results, err := sweepGrid("fig3", len(msses), len(variants), func(r, c int, name string) (float64, error) {
		mss, withChecksum := msses[r], variants[c]
		cfg := mptcpM12(16 << 20)
		cfg.UseDSSChecksum = withChecksum
		cfg.SubflowTemplate.MSS = mss
		return runFig3Point(opt.Seed+uint64(mss), cfg, withChecksum, perByte, duration, warmup, opt, name)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	mssX := make([]float64, len(msses))
	noCsum := make([]float64, len(msses))
	withCsum := make([]float64, len(msses))
	for r, mss := range msses {
		table.AddRow(fmt.Sprintf("%d", mss),
			fmt.Sprintf("%.2f", results[r][0]/1e3),
			fmt.Sprintf("%.2f", results[r][1]/1e3))
		mssX[r] = float64(mss)
		noCsum[r] = results[r][0] / 1e3
		withCsum[r] = results[r][1] / 1e3
	}
	table.AddNote("paper: goodput rises with MSS as per-packet costs amortize; with jumbo frames software DSS checksums cost ~30%% of goodput")
	res.AddTable(table)
	res.AddSeries(Series{Name: "MPTCP - No Checksum", Unit: "Gbps", XLabel: "MSS bytes", X: mssX, Y: noCsum})
	res.AddSeries(Series{Name: "MPTCP - Checksum", Unit: "Gbps", XLabel: "MSS bytes", X: mssX, Y: withCsum})
	return res, nil
}

// runFig3Point runs one bulk transfer over the 10G topology with the CPU
// model installed and returns goodput in Mbps.
func runFig3Point(seed uint64, cfg core.Config, checksummed bool, perByte time.Duration, duration, warmup time.Duration, obs Options, name string) (float64, error) {
	res, err := runBulk(BulkOptions{
		Seed:     seed,
		Specs:    netem.TenGigSpec(),
		Client:   cfg,
		Server:   cfg,
		Duration: duration,
		Warmup:   warmup,
		HostCPU: &netem.CPUModel{
			PerPacket:      fig3PerPacketCost,
			PerPayloadByte: cpuPerByte(checksummed, perByte),
		},
	}, obs, name)
	if err != nil {
		return 0, err
	}
	return res.GoodputMbps, nil
}

func cpuPerByte(checksummed bool, perByte time.Duration) time.Duration {
	if !checksummed {
		// Checksum offload: no per-byte software cost.
		return 0
	}
	return perByte
}
