// Package-level benchmarks: one benchmark per table/figure of the paper's
// evaluation (each runs the corresponding experiment harness in its quick
// configuration and reports domain metrics via b.ReportMetric), plus
// micro-benchmarks for the hot code paths the paper discusses — the DSS/TCP
// checksum (Figure 3) and the four out-of-order reassembly algorithms
// (Figure 8).
package mptcpgo

import (
	"fmt"
	"io"
	"testing"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/fleet"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/sim"
)

// runExperimentBench runs a registered experiment once per benchmark
// iteration with the quick sweep.
func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := Run(id, WithQuick(), WithSeed(42))
		if err == nil {
			err = res.Text(io.Discard)
		}
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

func BenchmarkFig03ChecksumGoodput(b *testing.B)  { runExperimentBench(b, "fig3") }
func BenchmarkFig04ReceiveWindow(b *testing.B)    { runExperimentBench(b, "fig4") }
func BenchmarkFig05Memory(b *testing.B)           { runExperimentBench(b, "fig5") }
func BenchmarkFig06aLossy3G(b *testing.B)         { runExperimentBench(b, "fig6a") }
func BenchmarkFig06bAsymGigabit(b *testing.B)     { runExperimentBench(b, "fig6b") }
func BenchmarkFig06cTripleGigabit(b *testing.B)   { runExperimentBench(b, "fig6c") }
func BenchmarkFig07AppLatency(b *testing.B)       { runExperimentBench(b, "fig7") }
func BenchmarkFig08OfoAlgorithms(b *testing.B)    { runExperimentBench(b, "fig8") }
func BenchmarkFig09Real3GWiFi(b *testing.B)       { runExperimentBench(b, "fig9") }
func BenchmarkFig10ConnectionSetup(b *testing.B)  { runExperimentBench(b, "fig10") }
func BenchmarkFig11HTTP(b *testing.B)             { runExperimentBench(b, "fig11") }
func BenchmarkMboxTraversal(b *testing.B)         { runExperimentBench(b, "mbox") }
func BenchmarkRationaleWindowDesign(b *testing.B) { runExperimentBench(b, "rationale") }

// BenchmarkFleetHTTP measures the sharded fleet engine's wall-clock scaling:
// the same 512-client closed-loop workload partitioned into 8 shards, run at
// 1/2/4/8 workers. The merged result is identical at every worker count (the
// fleet determinism tests pin this); only wall-clock should change — on a
// multi-core host, 8 workers should cut it well over 2× vs 1.
func BenchmarkFleetHTTP(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := fleet.DefaultHTTPSpec(42, 512, 2, 32<<10)
				spec.Shards = 8
				spec.Workers = workers
				if _, err := fleet.RunHTTP(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMPTCPTransferWiFi3G measures end-to-end simulated goodput of the
// full stack on the WiFi+3G scenario and reports it as a domain metric.
func BenchmarkMPTCPTransferWiFi3G(b *testing.B) {
	var goodput float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.SendBufBytes = 512 << 10
		cfg.RecvBufBytes = 512 << 10
		res, err := experiments.RunBulk(experiments.BulkOptions{
			Seed:     uint64(i + 1),
			Specs:    netem.WiFi3GSpec(),
			Config:   cfg,
			Duration: 10 * time.Second,
			Warmup:   3 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		goodput = res.GoodputMbps
	}
	b.ReportMetric(goodput, "Mbps")
}

// ---------------------------------------------------------------------------
// Figure 3 micro-benchmarks: checksum cost per byte
// ---------------------------------------------------------------------------

func benchmarkChecksum(b *testing.B, size int) {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink ^= packet.Checksum(buf)
	}
	_ = sink
}

func BenchmarkChecksum1460(b *testing.B) { benchmarkChecksum(b, 1460) }
func BenchmarkChecksum8960(b *testing.B) { benchmarkChecksum(b, 8960) }

func BenchmarkDSSChecksum1460(b *testing.B) {
	buf := make([]byte, 1460)
	b.SetBytes(1460)
	b.ReportAllocs()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink ^= packet.DSSChecksum(packet.DataSeq(i), uint32(i), 1460, buf)
	}
	_ = sink
}

// ---------------------------------------------------------------------------
// Figure 8 micro-benchmarks: out-of-order reassembly algorithms
// ---------------------------------------------------------------------------

// ofoWorkload simulates the arrival pattern at an MPTCP receiver whose
// slowest subflow is holding up the trailing edge: data sequence numbers are
// allocated to subflows in contiguous batches, subflow 0's segments are
// delayed to the very end (so the out-of-order queue stays large), and the
// remaining subflows' segments arrive interleaved but in per-subflow order —
// exactly the pattern the Shortcuts algorithms exploit.
func ofoWorkload(subflows, segments, batch int) []buffer.Item {
	const segSize = 1460
	perSubflow := make([][]buffer.Item, subflows)
	var alloc uint64
	for produced := 0; produced < segments; {
		for sf := 0; sf < subflows && produced < segments; sf++ {
			for k := 0; k < batch && produced < segments; k++ {
				perSubflow[sf] = append(perSubflow[sf], buffer.Item{
					Seq: alloc, Data: make([]byte, segSize), Subflow: sf,
				})
				alloc += segSize
				produced++
			}
		}
	}
	items := make([]buffer.Item, 0, segments)
	// Interleave subflows 1..N-1 first (round robin, per-subflow order)...
	idx := make([]int, subflows)
	for {
		emitted := false
		for sf := 1; sf < subflows; sf++ {
			if idx[sf] < len(perSubflow[sf]) {
				items = append(items, perSubflow[sf][idx[sf]])
				idx[sf]++
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	// ...then the delayed subflow 0 delivers its backlog.
	items = append(items, perSubflow[0]...)
	return items
}

func benchmarkOfo(b *testing.B, alg buffer.Algorithm, subflows int) {
	items := ofoWorkload(subflows, 4096, 64)
	var steps uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := buffer.NewOfoQueue(alg)
		var next uint64
		for _, it := range items {
			q.Insert(it)
			for _, out := range q.PopContiguous(next) {
				next = out.End()
				pool.Recycle(out.Data) // popped items transfer ownership
			}
		}
		steps = q.Steps()
	}
	b.ReportMetric(float64(steps)/float64(len(items)), "steps/segment")
}

func BenchmarkOfoRegular2(b *testing.B)      { benchmarkOfo(b, buffer.AlgRegular, 2) }
func BenchmarkOfoTree2(b *testing.B)         { benchmarkOfo(b, buffer.AlgTree, 2) }
func BenchmarkOfoShortcuts2(b *testing.B)    { benchmarkOfo(b, buffer.AlgShortcuts, 2) }
func BenchmarkOfoAllShortcuts2(b *testing.B) { benchmarkOfo(b, buffer.AlgAllShortcuts, 2) }
func BenchmarkOfoRegular8(b *testing.B)      { benchmarkOfo(b, buffer.AlgRegular, 8) }
func BenchmarkOfoTree8(b *testing.B)         { benchmarkOfo(b, buffer.AlgTree, 8) }
func BenchmarkOfoShortcuts8(b *testing.B)    { benchmarkOfo(b, buffer.AlgShortcuts, 8) }
func BenchmarkOfoAllShortcuts8(b *testing.B) { benchmarkOfo(b, buffer.AlgAllShortcuts, 8) }

// ---------------------------------------------------------------------------
// Figure 10 micro-benchmarks: key generation and token uniqueness check
// ---------------------------------------------------------------------------

func benchmarkKeyGeneration(b *testing.B, established int) {
	rng := sim.NewRNG(7)
	table := core.NewTokenTable()
	for i := 0; i < established; i++ {
		_, token := table.GenerateUniqueKey(rng)
		table.Insert(token, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GenerateKey(rng).TokenAndIDSN()
		table.GenerateUniqueKey(rng)
	}
}

func BenchmarkKeyGeneration0Conns(b *testing.B)    { benchmarkKeyGeneration(b, 0) }
func BenchmarkKeyGeneration100Conns(b *testing.B)  { benchmarkKeyGeneration(b, 100) }
func BenchmarkKeyGeneration1000Conns(b *testing.B) { benchmarkKeyGeneration(b, 1000) }

// ---------------------------------------------------------------------------
// Hot-path allocation benchmarks
// ---------------------------------------------------------------------------

// BenchmarkSegmentPool measures the pooled build/release cycle of a data
// segment — the per-hop cost of the emulator's forwarding plane. Expected:
// 0 allocs/op at steady state.
func BenchmarkSegmentPool(b *testing.B) {
	payload := make([]byte, 1460)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := packet.NewSegment()
		seg.Src = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 40000}
		seg.Dst = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 2), Port: 80}
		seg.Seq = packet.SeqNum(i)
		seg.Flags = packet.FlagACK | packet.FlagPSH
		seg.AttachPayload(pool.Copy(payload))
		seg.Release()
	}
}

// BenchmarkBulkTransferAllocs runs a short WiFi+3G bulk transfer and reports
// allocs/op: the end-to-end allocation footprint of the full stack (segment
// and payload pools, send-queue slicing, chunk/DSS free lists, per-segment
// option arenas, OFO recycling, event free list). ~59.8k allocs/op before
// chunk/DSS recycling, ~3.2k after, ~0.9k since a segment that misses the
// pool is one object, ~0.86k since link FIFOs are threaded through the
// segments they hold; TestBulkTransferAllocBudget pins it.
func BenchmarkBulkTransferAllocs(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.SendBufBytes = 256 << 10
	cfg.RecvBufBytes = 256 << 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBulk(experiments.BulkOptions{
			Seed:     uint64(i + 1),
			Specs:    netem.WiFi3GSpec(),
			Config:   cfg,
			Duration: 3 * time.Second,
			Warmup:   1 * time.Second,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenLoopChurn is bench/perf's `churn` workload through the facade:
// 64 hosts, 1000 fixed 16 KiB flows/s for 4 s, each on a fresh connection, so
// allocs/op divided by the ~4000 flows is what a short flow costs in heap
// objects. It is the edit-loop and profiling entry point (bench/perf gives the
// verdict): `-memprofilerate 4096 -memprofile` plus `go tool pprof
// -sample_index=alloc_objects -top` names the allocation sites; CI uploads
// that table next to the benchmark JSON.
func BenchmarkOpenLoopChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewOpenLoop(3).Hosts(64).Rate(1000).SizeDist("fixed:16384").
			Window(4 * time.Second).FlowDeadline(3 * time.Second).Shards(4).Workers(2).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenLoopCorelink is bench/perf's `corelink` workload through the
// facade: 256 hosts offering 400 webmix flows/s for 5 s through a shared
// 100 Mbps core, so its allocation profile shows what an overloaded fleet
// pays beside the per-flow structs `churn` measures (out-of-order list nodes,
// deep bursts on the core link, which cost the link nothing: its FIFO is
// threaded through the segments it holds). CI uploads its alloc_objects
// table beside churn's.
func BenchmarkOpenLoopCorelink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewOpenLoop(3).Hosts(256).Rate(400).SizeDist("webmix").
			Window(5*time.Second).SharedBottleneck("core", 100, nil).Shards(4).Workers(2).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Wire codec benchmarks
// ---------------------------------------------------------------------------

// BenchmarkSegmentEncodeDecode measures one full wire round trip with the
// pooled codec lifecycle: Encode into a pool-owned buffer, Decode into a
// pooled segment (arena options, payload borrowed from the wire buffer),
// then release both. Expected: 0 allocs/op at steady state.
func BenchmarkSegmentEncodeDecode(b *testing.B) {
	seg := &packet.Segment{
		Src:    packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 40000},
		Dst:    packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 2), Port: 80},
		Seq:    12345,
		Ack:    67890,
		Flags:  packet.FlagACK | packet.FlagPSH,
		Window: 65535,
		Options: []packet.Option{
			&packet.TimestampsOption{Val: 1, Echo: 2},
			&packet.DSSOption{HasDataACK: true, DataACK: 1000, HasMapping: true, DataSeq: 2000, SubflowOffset: 3000, Length: 1460, HasChecksum: true, Checksum: 0xbeef},
		},
		Payload: make([]byte, 1460),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := packet.Encode(seg)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := packet.Decode(seg.Src.Addr, seg.Dst.Addr, wire)
		if err != nil {
			b.Fatal(err)
		}
		dec.Release()
		packet.ReleaseWire(wire)
	}
}
