package experiments

import (
	"fmt"
	"time"

	"mptcpgo/internal/netem"
)

// Figure 3: goodput over a 10 Gbps LAN as a function of the TCP maximum
// segment size, with DSS checksums enabled (computed in software, as in the
// paper's implementation) and disabled (checksum offload does the TCP
// checksum, the DSS checksum is simply not used).
//
// The paper's Xeon/10G testbed is replaced by the host CPU cost model in
// internal/netem: every packet is charged a fixed per-packet processing cost
// and, when DSS checksums are enabled, a fixed per-byte cost of the paper's
// era (PaperEraChecksumCost), so the figure does not depend on the host it
// runs on.

func init() {
	Register(Experiment{
		ID:    "fig3",
		Title: "Fig. 3 — impact of DSS checksumming on 10G goodput vs MSS",
		Run:   runFig3,
	})
}

// fig3PerPacketCost is the fixed per-packet processing cost of the host model
// (interrupt handling, protocol processing). It is chosen so that with the
// standard Ethernet MSS the 10G link cannot be filled — the regime the paper
// reports ("performance is limited by per-packet costs such as interrupt
// processing").
const fig3PerPacketCost = 2 * time.Microsecond

// PaperEraChecksumCost is the per-byte ones-complement checksum cost of the
// paper's 2012-era testbed CPUs (a few hundred MB/s of checksum throughput),
// so the checksum-on curve keeps its distance from the offload curve however
// fast the host running the simulation checksums.
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

	table := NewTable("Average goodput (Gbps) vs MSS on 2×10Gbps paths",
		"MSS (bytes)", "MPTCP - No Checksum", "MPTCP - Checksum")
	table.AddNote("host CPU model: %v per packet; paper-era checksum cost %v/byte (applied per payload byte at sender and receiver when DSS checksums are on)",
		fig3PerPacketCost, PaperEraChecksumCost)

	variants := []bool{false, true} // columns: (no checksum, checksum)
	results, err := sweepGrid("fig3", len(msses), len(variants), func(r, c int, name string) (float64, error) {
		mss, withChecksum := msses[r], variants[c]
		cfg := mptcpM12(16 << 20)
		cfg.UseDSSChecksum = withChecksum
		cfg.SubflowTemplate.MSS = mss
		// Without DSS checksums, offload does the TCP checksum and there is
		// no per-byte software cost.
		cpu := netem.CPUModel{PerPacket: fig3PerPacketCost}
		if withChecksum {
			cpu.PerPayloadByte = PaperEraChecksumCost
		}
		res, err := runBulk(BulkOptions{
			Seed:     opt.Seed + uint64(mss),
			Specs:    netem.TenGigSpec(),
			Client:   cfg,
			Server:   cfg,
			Duration: duration,
			Warmup:   warmup,
			HostCPU:  &cpu,
		}, opt, name)
		return res.GoodputMbps, err
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
