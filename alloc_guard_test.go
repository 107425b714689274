package mptcpgo

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/telemetry"
)

// Allocation-regression guards: the pooled hot paths introduced for the
// Figure 3 / §4.3 performance work must stay allocation-free. These tests
// fail loudly if a change reintroduces per-segment allocation.
//
// testing.AllocsPerRun averages over many runs, so a single GC-induced pool
// miss does not flake the guard; a systematic regression (one alloc per
// cycle) pushes the average to ≥1 and fails.

// TestPooledPayloadCycleNoAllocs guards pool.Bytes/pool.Copy/pool.Recycle.
func TestPooledPayloadCycleNoAllocs(t *testing.T) {
	src := make([]byte, 1460)
	for i := 0; i < 8; i++ {
		pool.Recycle(pool.Bytes(1460)) // warm the class
	}
	avg := testing.AllocsPerRun(500, func() {
		b := pool.Copy(src)
		pool.Recycle(b)
	})
	if avg >= 1 {
		t.Fatalf("pooled payload copy/recycle cycle allocates %.2f allocs/op; want 0", avg)
	}
}

// TestPooledSegmentCycleNoAllocs guards the segment build/release cycle —
// the per-hop cost of every emulated packet.
func TestPooledSegmentCycleNoAllocs(t *testing.T) {
	payload := make([]byte, 1460)
	for i := 0; i < 8; i++ {
		seg := packet.NewSegment()
		seg.AttachPayload(pool.Copy(payload))
		seg.Release() // warm segment and payload pools
	}
	avg := testing.AllocsPerRun(500, func() {
		seg := packet.NewSegment()
		seg.Src = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 40000}
		seg.Dst = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 2), Port: 80}
		seg.Flags = packet.FlagACK | packet.FlagPSH
		seg.AttachPayload(pool.Copy(payload))
		seg.Release()
	})
	if avg >= 1 {
		t.Fatalf("pooled segment cycle allocates %.2f allocs/op; want 0", avg)
	}
}

// TestOfoQueueSteadyStateNoAllocs guards the free-listed out-of-order
// queues: once the node/batch free lists and the PopContiguous scratch slice
// are warm, a reorder-then-drain cycle (two subflows, one gap, one fill) must
// not allocate in any of the four §4.3 algorithms — neither for payload
// buffers (pooled since PR 1) nor for the listNode/treeNode/batchNode structs
// and the result slice. The node lists are the simulator's, so the same holds
// for a fresh queue in every cycle, as each connection that reorders builds
// one: once the shard is warm, a queue's inserts and drains allocate nothing
// (its own construction is paid before the cycle).
func TestOfoQueueSteadyStateNoAllocs(t *testing.T) {
	payload := make([]byte, 1460)
	const runs = 300
	for _, alg := range buffer.Algorithms() {
		for _, fresh := range []bool{false, true} {
			s := sim.New(1)
			bufs, nodes := sim.Local[pool.Local](s), sim.Local[buffer.Nodes](s)
			// AllocsPerRun runs the cycle once more than asked; the warm-up
			// runs 16 times.
			queues := make([]buffer.OfoQueue, runs+1+16)
			for i := range queues {
				if i == 0 || fresh {
					queues[i] = buffer.NewOfoQueue(alg)
					queues[i].UsePool(bufs, nodes)
				} else {
					queues[i] = queues[0]
				}
			}
			var next uint64
			cycles := 0
			cycle := func() {
				q := queues[cycles]
				cycles++
				// Subflow 1's segment arrives early (creating the gap),
				// subflow 0's fills it; the drain returns both.
				q.Insert(buffer.Item{Seq: next + 1460, Data: payload, Subflow: 1})
				q.Insert(buffer.Item{Seq: next, Data: payload, Subflow: 0})
				for _, it := range q.PopContiguous(next) {
					next = it.End()
					bufs.Recycle(it.Data)
				}
				if q.Len() != 0 {
					t.Fatalf("%s: queue not drained (%d items left)", alg, q.Len())
				}
			}
			for i := 0; i < 16; i++ {
				cycle() // warm the free lists and the scratch slice
			}
			avg := testing.AllocsPerRun(runs, cycle)
			if avg >= 1 {
				t.Fatalf("%s OFO steady-state cycle (fresh queue each cycle: %v) allocates %.2f allocs/op; want 0", alg, fresh, avg)
			}
		}
	}
}

// TestChecksumNoAllocs guards the word-at-a-time checksum paths (Figure 3's
// hot loop): neither the plain Internet checksum nor the DSS checksum with
// its stack pseudo-header may allocate.
func TestChecksumNoAllocs(t *testing.T) {
	buf := make([]byte, 1460)
	var sink uint16
	avg := testing.AllocsPerRun(500, func() {
		sink ^= packet.Checksum(buf)
		sink ^= packet.DSSChecksum(1234, 5678, 1460, buf)
	})
	_ = sink
	if avg != 0 {
		t.Fatalf("checksum paths allocate %.2f allocs/op; want 0", avg)
	}
}

// TestChecksumMatchesReference cross-checks the optimized word-at-a-time
// checksum against the definitional byte-at-a-time sum on assorted lengths
// and alignment-hostile sizes.
func TestChecksumMatchesReference(t *testing.T) {
	reference := func(sum uint32, data []byte) uint32 {
		i, n := 0, len(data)
		for ; i+1 < n; i += 2 {
			sum += uint32(data[i])<<8 | uint32(data[i+1])
		}
		if i < n {
			sum += uint32(data[i]) << 8
		}
		return sum
	}
	fold := packet.FoldChecksum
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 536, 1459, 1460, 8960} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*131 + n)
		}
		want := fold(reference(0, data))
		got := fold(packet.PartialChecksum(0, data))
		if got != want {
			t.Fatalf("len=%d: checksum %#04x, reference %#04x", n, got, want)
		}
		// Composed partial sums (pseudo-header + payload) must agree too.
		want = fold(reference(reference(0, data[:n/2*2]), data[n/2*2:]))
		got = fold(packet.PartialChecksum(packet.PartialChecksum(0, data[:n/2*2]), data[n/2*2:]))
		if got != want {
			t.Fatalf("len=%d: composed checksum %#04x, reference %#04x", n, got, want)
		}
	}
}

// sendPathCycleAllocs measures the steady-state allocation cost of one
// write→deliver→read cycle over a symmetric 100 Mbps path. When traced is
// true a flight recorder is attached to the client stack first (events only —
// no sampler — so the cycle exercises the Emit/Count hot path, not the
// time-series machinery). When telem is true each cycle also adds to a
// telemetry plane's totals, as a finished fleet shard does once.
func sendPathCycleAllocs(t *testing.T, traced, telem bool) float64 {
	t.Helper()
	s := sim.New(7)
	net := netem.Build(s, netem.Symmetric("p", netem.Mbps(100), time.Millisecond, 0, 0))
	cliMgr := core.NewManager(net.Client)
	srvMgr := core.NewManager(net.Server)
	if traced {
		cliMgr.SetProbe(probe.NewRecorder(s, 0, 1, 0), 0)
	}

	cfg := core.DefaultConfig()
	cfg.SendBufBytes = 256 << 10
	cfg.RecvBufBytes = 256 << 10

	var serverConn *core.Connection
	if _, err := srvMgr.Listen(80, cfg, func(c *core.Connection) { serverConn = c }); err != nil {
		t.Fatal(err)
	}
	iface := net.Client.Interfaces()[0]
	conn, err := cliMgr.Dial(iface, packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && (serverConn == nil || !conn.Established()); i++ {
		if !s.Step() {
			break
		}
	}
	if serverConn == nil || !conn.Established() {
		t.Fatal("connection did not establish")
	}

	var plane *telemetry.Plane
	if telem {
		plane = telemetry.New()
	}

	payload := make([]byte, 1460)
	readBuf := make([]byte, 4096)
	cycle := func() {
		if conn.Write(payload) != len(payload) {
			t.Fatal("write rejected in steady state")
		}
		deadline := s.Now() + time.Second
		for serverConn.ReadableBytes() < len(payload) && s.Now() < deadline {
			if !s.Step() {
				break
			}
		}
		for serverConn.ReadableBytes() > 0 {
			if serverConn.ReadInto(readBuf) == 0 {
				break
			}
		}
		plane.AddShard(s.Processed, 1)
	}
	for i := 0; i < 64; i++ {
		cycle() // reach steady state: free lists, pools and queues warm
	}
	return testing.AllocsPerRun(400, cycle)
}

// TestSendPathSteadyStateAllocs guards the chunk + DSS recycling on the
// full MPTCP send path: once a connection reaches steady state, a
// write→deliver→read cycle must not allocate per segment. Every moving part
// is recycled — chunk structs and their DSS options (shard-scoped free
// lists), outgoing segments and payload buffers (pools), outgoing options
// (per-segment arenas), events (simulator free list) — so the average
// allocation count per cycle is pinned near zero. The small budget absorbs
// sync.Pool refills after GC cycles; before chunk/DSS recycling this cycle
// cost dozens of allocations.
//
// With no probe attached, every flight-recorder hook reduces to one
// nil-receiver (or nil-config) branch, so tracing-disabled stays under the
// same budget it had before the instrumentation existed.
func TestSendPathSteadyStateAllocs(t *testing.T) {
	avg := sendPathCycleAllocs(t, false, false)
	if avg >= 4 {
		t.Fatalf("steady-state send cycle allocates %.2f allocs/op; want < 4", avg)
	}
}

// TestSendPathTracedSteadyStateAllocs pins the flight recorder's enabled-path
// budget: with a recorder attached, every emission lands in a preallocated
// per-member ring and counter set, so the traced steady-state cycle must meet
// the same < 4 allocs/op budget as the untraced one.
func TestSendPathTracedSteadyStateAllocs(t *testing.T) {
	avg := sendPathCycleAllocs(t, true, false)
	if avg >= 4 {
		t.Fatalf("traced steady-state send cycle allocates %.2f allocs/op; want < 4 (recorder storage is preallocated)", avg)
	}
}

// TestSendPathTelemetrySteadyStateAllocs pins the telemetry plane's publish
// budget: a shard's totals add is two atomic adds, so a cycle that publishes
// every time must meet the same < 4 allocs/op budget as the bare one.
func TestSendPathTelemetrySteadyStateAllocs(t *testing.T) {
	avg := sendPathCycleAllocs(t, false, true)
	if avg >= 4 {
		t.Fatalf("telemetry steady-state send cycle allocates %.2f allocs/op; want < 4 (a totals add allocates nothing)", avg)
	}
}

// skipAllocBudget skips the end-to-end allocation budgets in -short runs.
func skipAllocBudget(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation budgets are not measured in -short mode")
	}
}

// raceBudget picks an end-to-end budget: measured plus 25% in a plain binary,
// and a looser one under the race detector, whose sync.Pool drops a quarter of
// what is put back, so the pooled buffers a run would have reused are paid for
// again (a 16 KiB flow reads 12.4 objects there against 2.9).
func raceBudget(plain, race float64) float64 {
	if raceEnabled {
		return race
	}
	return plain
}

// shortFlowCost runs bench/perf's churn shape (open-loop arrivals of fixed
// 16 KiB flows, each on a fresh connection) at a quarter of its size, once to
// warm the pools and once measured, and returns what a completed flow cost in
// heap bytes and in heap objects.
func shortFlowCost(t *testing.T) (bytes, objects float64) {
	t.Helper()
	skipAllocBudget(t)
	run := func() (done float64) {
		res, err := NewOpenLoop(3).Hosts(32).Rate(500).SizeDist("fixed:16384").
			Window(2 * time.Second).FlowDeadline(3 * time.Second).Shards(4).Workers(2).Run()
		if err != nil {
			t.Fatal(err)
		}
		all := res.Tables[0]
		for i, col := range all.Columns {
			if col == "done" {
				done, _ = strconv.ParseFloat(all.Rows[len(all.Rows)-1][i], 64)
			}
		}
		if done < 500 {
			t.Fatalf("only %v flows completed", done)
		}
		return done
	}
	run() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := run()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / done, float64(after.Mallocs-before.Mallocs) / done
}

// TestShortFlowAllocBudget pins what one short flow costs in heap bytes on
// the fleet path. Send and receive queues draw fixed blocks from
// internal/pool; chunks, DSS options and mappings come from shard-scoped free
// lists; and the httpsim pools release their connections, so a finished
// flow's Connection, Subflow and Endpoint structs go back to the shard's free
// lists too and the next flow reuses them, as it reuses the httpsim flow and
// serverConn of a flow that closed before it. Those three structs outlive
// their world: a closed shard hands its lists to the next one built in the
// process (sim.Close), so the measured run, which follows a warm-up run,
// pays for almost none of them, only for the slab-allocated small structs
// that die with each world, and link FIFOs are threaded through the segments
// they hold, so no world grows a queue per link. It reads 2.1 to 2.6 KB a
// flow here (the budget is 2.64 KB plus 25%), the run's own set-up included.
// It was 2.8 to 3.2 KB, now and then 3.4, while every world grew each busy
// link's FIFO slice again, 4.4 to 5.0 KB while each world paid for the
// structs of its peak of live connections, 4.8 to 5.2 KB while each flow
// allocated its httpsim structs, 9.1 to 9.8 KB while it allocated its ends'
// structs too, and ~90 KB when every queue grew from nil by doubling. Under
// the race detector, whose sync.Pool drops segments at random, it reads 11.8
// to 11.9 KB (12.3 to 12.9 while link FIFOs were slices, 14.2 to 14.4 before
// the lists outlived their world); the budget is 11.9 KB plus 25%.
func TestShortFlowAllocBudget(t *testing.T) {
	perFlow, _ := shortFlowCost(t)
	budget := raceBudget(3300, 14900)
	t.Logf("%.0f bytes a flow; budget %.0f", perFlow, budget)
	if perFlow > budget {
		t.Fatalf("a 16 KiB flow allocates %.0f bytes; budget %.0f", perFlow, budget)
	}
}

// TestShortFlowObjectBudget pins the same flow in heap objects. What lives
// exactly as long as a connection is a field of it (timers, controller,
// coupling group, the first backing store of every small slice), what most
// flows never use is built on first use (out-of-order queues), handshake
// options are built in the segment's arena, wheel slots are lists threaded
// through their events, and the structs of both ends come from the shard's
// free lists: 1.7 objects here (the budget is 1.7 plus 25%). None of them is
// the flow's own. The connection's three structs, allocated alone, come from
// the lists of worlds closed before (sim.Close), and with them the four
// hooks each connection binds once for its handler
// (core.Connection.SetHandler), which httpsim's flow and serverConn are; the
// token table links its chains by index through one node array. What a
// world still pays up to its peak of live flows are the slab-allocated
// structs (httpsim's two, mappings, chunks), which die with it. Some are
// segments the packet pool refills after a collection, one object each with
// their option arena and option list; and the rest is the run's set-up
// spread over its ~1000 flows: a graph is a handful of slabs, and its demux
// maps and connection lists come warm from the worlds closed before. It was
// 2.9 to 3.0 while every world built its graph object by object and grew its
// tables from empty, 4.7 to 5.1 while every world bound httpsim's
// method values for its structs again and grew its token chains from nil,
// 6.6 to 6.8 while each world paid for the structs of its peak of live
// connections, 7.4 to 8.2 while a refilled segment allocated its arena and
// grew its option list apart from itself, and RSTs and link FIFOs were built
// outside the pools, 15.6 to 15.9 while each flow allocated its two httpsim
// structs and five method values, 21 while it allocated the 6 structs of its
// two ends too, and 117 when each field above was an object of its own.
// Under the race detector, whose sync.Pool drops segments at random, it
// reads 11.1 (12.2 to 12.5 before the warm world, 14.2 to 14.4 before that;
// budget: 11.1 plus 25%); it read 47.5 to 49 while each dropped segment cost
// its arena and option list again.
func TestShortFlowObjectBudget(t *testing.T) {
	_, perFlow := shortFlowCost(t)
	budget := raceBudget(2.1, 13.9)
	t.Logf("%.1f objects a flow; budget %.1f", perFlow, budget)
	if perFlow > budget {
		t.Fatalf("a 16 KiB flow allocates %.1f heap objects; budget %.1f", perFlow, budget)
	}
}

// TestOpenLoopHostMarginalAllocBudget pins what one more arrival host costs a
// fleet that does the same work: the same open-loop run (seed, fleet-wide
// rate, sizes, window) at 256 hosts and at 64, in bytes and in heap objects.
// The difference is the hosts themselves: host, interface, links, manager
// and pool. A link holds its queue in the segments it carries
// (packet.Segment.Hop), so a busy host costs no more than an idle one, and
// scratch buffers are per shard (sim.Local), so they are not in it either.
// It reads 2.5 to 3.6 KiB here (the budget is 6.5 KiB plus 25%, set when it
// read 3.3 to 6.5); it read up to 7.7 KiB while each link's FIFO was a slice
// that every world grew again, and 66 KiB when every host's pool owned a
// 64 KiB drain buffer and every link FIFO grew to thousands of entries.
//
// In objects it reads 9.2 to 9.6 alone and 10.0 to 10.5 after the
// package's other tests (the budget is 9.6 plus 25%; 9.9 to 10.3 under the
// race detector): the pool with its latency record, sized once,
// its arrival process and random stream, its start event, the host's and
// the link's names, and the demux map and connection list that the 256-host
// run's extra hosts, colder than the stash's, make. The host, its
// interfaces, path, links and manager are slots of their world's slabs, and
// a pool reaches its hooks through itself, not through bound method values.
// It read 26.2 while each of those was an object of its own, the links'
// names were built with the graph and each world grew its tables from
// empty.
func TestOpenLoopHostMarginalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("per-host budget is not measured in -short mode")
	}
	run := func(hosts int) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewOpenLoop(3).Hosts(hosts).Rate(200).SizeDist("fixed:16384").
			Window(time.Second).Shards(4).Workers(2).Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	run(64) // warm the pools
	small, smallObjects := run(64)
	large, largeObjects := run(256)
	perHost := (float64(large) - float64(small)) / (256 - 64)
	objectsPerHost := (float64(largeObjects) - float64(smallObjects)) / (256 - 64)
	const budget = 8 << 10
	objectBudget := raceBudget(12.0, 12.9)
	t.Logf("%.0f bytes and %.1f objects an extra host; budgets %d and %.1f", perHost, objectsPerHost, budget, objectBudget)
	if perHost > budget {
		t.Fatalf("an extra open-loop host allocates %.0f bytes (%d at 64 hosts, %d at 256); budget %d",
			perHost, small, large, budget)
	}
	if objectsPerHost > objectBudget {
		t.Fatalf("an extra open-loop host allocates %.1f heap objects (%d at 64 hosts, %d at 256); budget %.1f",
			objectsPerHost, smallObjects, largeObjects, objectBudget)
	}
}

// TestBulkTransferAllocBudget pins the end-to-end allocation footprint of
// the short WiFi+3G bulk transfer that BenchmarkBulkTransferAllocs measures.
// The hot-path work (PR 1: pools and send-queue slicing; PR 4: chunk/DSS
// recycling, per-segment option arenas, capacity-preserving queues; PR 13:
// block-pooled byte queues held by value, shard-scoped free lists) brought it
// from ~268k to ~59.8k to ~3.2k to ~2.8k allocs/op; slab-refilled free lists,
// an insertion-sorted SACK list and connection state held in the connection
// (PR 19) to 1.4k to 1.9k, depending on how many collections empty the segment
// pool during the run; wheel slots threaded through their events, which no
// longer grow a slice per slot in each simulator, to 1.0k to 1.45k; the
// reassembly nodes taken from the simulator's free lists, to 1.2k; a segment
// that misses the pool allocated as one object with its option arena and
// option list, and link FIFOs that start inline, to 908 to 928 when the test
// runs alone; free lists that outlive their world, to 865; link FIFOs
// threaded through the segments they hold, to 855 to 856; a graph built
// from slabs, with warm demux maps and connection lists, to 825 (about 625
// after other tests have warmed the pools). The budget is 825 plus 25%.
// Under the race detector it reads 1.25k (1.29k before the warm world, 3.0k
// while every segment its sync.Pool dropped cost an arena and option-list
// growth again; budget: 1.25k plus 25%).
func TestBulkTransferAllocBudget(t *testing.T) {
	skipAllocBudget(t)
	cfg := core.DefaultConfig()
	cfg.SendBufBytes = 256 << 10
	cfg.RecvBufBytes = 256 << 10
	run := func() {
		if _, err := experiments.RunBulk(experiments.BulkOptions{
			Seed:     1,
			Specs:    netem.WiFi3GSpec(),
			Config:   cfg,
			Duration: 3 * time.Second,
			Warmup:   1 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(3, run)
	budget := raceBudget(1030, 1565)
	t.Logf("%.0f allocs/run; budget %.0f", avg, budget)
	if avg > budget {
		t.Fatalf("bulk transfer allocates %.0f allocs/run; budget %.0f (pre-recycling figure was ~59.8k)", avg, budget)
	}
}
