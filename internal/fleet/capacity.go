package fleet

import (
	"fmt"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
)

// addCapacityReport appends the coupler's per-epoch capacity trace to a
// result: one summary row per shared link plus offered/through series over
// epochs. The trace is part of the deterministic merge — it depends only on
// (epoch, shard index, offered bytes) — so it rides the same byte-identity
// contract as the scenario tables.
func addCapacityReport(res *experiments.Result, c *capacity.Coupler) {
	links := c.Links()
	epochSec := c.Epoch().Seconds()
	table := experiments.NewTable(
		fmt.Sprintf("shared-link capacity exchange: %d epoch windows of %v", c.Epochs(), c.Epoch()),
		"link", "rate Mbps", "epochs", "offered Mbps", "through Mbps", "util %", "congested")
	for j, l := range links {
		var offered, sent uint64
		congested := 0
		perEpochOffered := make([]float64, 0, c.Epochs())
		perEpochThrough := make([]float64, 0, c.Epochs())
		for _, rec := range c.Trace() {
			if rec.Link != j {
				continue
			}
			offered += rec.OfferedBytes
			sent += rec.SentBytes
			if rec.Bottlenecked > 0 {
				congested++
			}
			perEpochOffered = append(perEpochOffered, float64(rec.OfferedBytes)*8/epochSec/1e6)
			perEpochThrough = append(perEpochThrough, float64(rec.SentBytes)*8/epochSec/1e6)
		}
		n := len(perEpochOffered)
		if n == 0 {
			continue
		}
		span := float64(n) * epochSec
		offMbps := float64(offered) * 8 / span / 1e6
		thruMbps := float64(sent) * 8 / span / 1e6
		table.AddRow(l.Name, fmt.Sprintf("%.2f", float64(l.RateBps)/1e6),
			fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", offMbps), fmt.Sprintf("%.2f", thruMbps),
			fmt.Sprintf("%.1f", thruMbps/(float64(l.RateBps)/1e6)*100),
			fmt.Sprintf("%d", congested))
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		res.AddSeries(experiments.Series{Name: l.Name + " offered", Unit: "Mbps", XLabel: "epoch", X: x, Y: perEpochOffered})
		res.AddSeries(experiments.Series{Name: l.Name + " through", Unit: "Mbps", XLabel: "epoch", X: x, Y: perEpochThrough})
	}
	table.AddNote("offered counts every byte presented to tagged directions (drops included: demand); through counts serialized bytes; congested counts epochs where at least one shard's demand exceeded its allocation")
	res.AddTable(table)
}
