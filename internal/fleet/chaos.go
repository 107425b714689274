package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
)

// chaosStream offsets the DeriveSeed stream indices used for per-member
// payload patterns, disjoint from the shard-seed stream space (raw shard
// indices), the open-loop workload space (0x0517_0000) and the fault-jitter
// space (faults.SeedStream).
const chaosStream = 0x0C4A_0000

// ChaosSpec describes the fleet-chaos scenario: Members dual-homed client
// hosts, each with two access paths to a sharded server replica, each
// uploading a patterned byte stream that the server verifies byte-for-byte
// (exact-once, in-order — see faults.Checker) while a deterministic fault
// schedule batters the paths and an optional adversarial middlebox preset
// sits on them. A member whose connections count a stall episode (see
// core.StallInterval), or that is unfinished at the deadline, is reported
// stalled with a diagnostic dump.
//
// The invariant the scenario checks is the paper's robustness claim: under
// every fault×adversary combination each member must either complete with an
// intact stream (surviving on the remaining subflows) or fall back to regular
// TCP with a taxonomized reason — corruption, duplication and silent hangs
// are failures.
type ChaosSpec struct {
	// Common.Seed also roots fault jitter and payload patterns;
	// Common.Deadline defaults to 45s.
	Common
	// Members is the number of dual-homed client hosts.
	Members int
	// TransferBytes is each member's upload size (default 384 KiB).
	TransferBytes int
	// Faults is the fault schedule applied independently to every member's
	// two paths (jitter streams derived per member). See faults.Parse.
	Faults faults.Spec
	// Adversary names a middlebox.AdversaryPreset installed on every
	// member's paths ("" = none).
	Adversary string
	// CaptureName overrides the observer file prefix (default "fleet-chaos":
	// <PcapDir>/<CaptureName>-shard<NNN>.pcap, fallback handshakes included,
	// and <Trace.Dir>/<CaptureName>-trace.json); the adversarial grid uses it
	// for per-case file names.
	CaptureName string
}

func (s ChaosSpec) withDefaults() ChaosSpec {
	s.Common = s.Common.withDefaults(45 * time.Second)
	s.prefix = s.CaptureName
	if s.TransferBytes <= 0 {
		s.TransferBytes = 384 << 10
	}
	return s
}

// chaosConnConfig configures both ends of every member connection: MPTCP
// without address advertisement, with subflows that declare a path dead
// after 4 consecutive RTOs (instead of TCP's patient 10) so reinjection onto
// survivors happens within seconds of an outage.
func chaosConnConfig() core.Config {
	cfg := StarConfig(core.DefaultConfig())
	cfg.SubflowTemplate.MaxRTORetries = 4
	return cfg
}

// chaosOutcome taxonomizes one member's fate.
const (
	outcomeOK       = "ok"       // completed intact, multipath to the end
	outcomeFallback = "fallback" // completed intact after TCP fallback
	outcomeStalled  = "stalled"  // a stall episode, or unfinished at the deadline
	outcomeFailed   = "failed"   // connection error or integrity violation
)

// chaosScratch is the one fill/drain buffer the members of a shard share
// (sim.Local). Its size is the ReadInto granularity, which feeds the
// receive-window-update heuristic, so it must not change.
type chaosScratch [32 << 10]byte

// chaosMember is the per-member harness state.
type chaosMember struct {
	spec    *ChaosSpec
	gi      int
	checker *faults.Checker
	client  *core.Connection
	server  *core.Connection
	// buf is the shard's chaosScratch: both uses (Fill then Write, ReadInto
	// then Feed) are over before any other member runs.
	buf []byte

	sent           uint64
	serverEOF      bool
	clientClosed   bool
	serverClosed   bool
	fallbackReason string
	done           bool
	outcome        string
	injector       *faults.Injector
	onDone         func()
}

func (m *chaosMember) total() uint64 { return uint64(m.spec.TransferBytes) }

// pump writes patterned payload until the transfer is fully queued, then
// closes the sending direction (DATA_FIN). It generates only what the next
// Write will take, so each pattern byte is produced once; Write sees the
// lengths it would have truncated a full buffer to.
func (m *chaosMember) pump() {
	if m.done || m.client == nil || m.client.Closed() {
		return
	}
	for m.sent < m.total() {
		n := min(len(m.buf), m.client.SendBufferSpace())
		if rem := m.total() - m.sent; rem < uint64(n) {
			n = int(rem)
		}
		if n == 0 {
			return
		}
		m.checker.Fill(m.buf[:n], m.sent)
		m.sent += uint64(m.client.Write(m.buf[:n]))
	}
	m.client.Close()
}

// drain consumes server-side data into the integrity checker.
func (m *chaosMember) drain() {
	if m.server == nil {
		return
	}
	for {
		n := m.server.ReadInto(m.buf)
		if n == 0 {
			break
		}
		m.checker.Feed(m.buf[:n])
	}
	if m.server.EOF() {
		m.serverEOF = true
	}
	m.maybeFinish()
}

func (m *chaosMember) maybeFinish() {
	if m.done {
		return
	}
	success := m.serverEOF && m.checker.Complete()
	dead := m.clientClosed && (m.server == nil || m.serverClosed || m.serverEOF)
	if !success && !dead {
		return
	}
	m.done = true
	switch {
	case success && m.fallbackReason == "":
		m.outcome = outcomeOK
	case success:
		m.outcome = outcomeFallback
	default:
		m.outcome = outcomeFailed
	}
	m.onDone()
}

// chaosMerge accumulates member outcomes deterministically (member order
// within a shard, shard order across the fleet): one shard's contribution, or
// the fleet total.
type chaosMerge struct {
	members      int
	ok           int
	fallback     int
	stalled      int
	stallEps     int
	failed       int
	intact       int
	reinjections uint64
	connRtx      uint64
	flaps        int
	removals     int
	restores     int
	encodeErrors int
	events       uint64
	reasons      map[string]int
	stallDumps   []string
}

func (m *chaosMerge) addReason(cat string) {
	if m.reasons == nil {
		m.reasons = make(map[string]int)
	}
	m.reasons[cat]++
}

func (m *chaosMerge) merge(o chaosMerge) {
	m.members += o.members
	m.ok += o.ok
	m.fallback += o.fallback
	m.stalled += o.stalled
	m.stallEps += o.stallEps
	m.failed += o.failed
	m.intact += o.intact
	m.reinjections += o.reinjections
	m.connRtx += o.connRtx
	m.flaps += o.flaps
	m.removals += o.removals
	m.restores += o.restores
	m.encodeErrors += o.encodeErrors
	m.events += o.events
	for k, v := range o.reasons {
		if m.reasons == nil {
			m.reasons = make(map[string]int)
		}
		m.reasons[k] += v
	}
	m.stallDumps = append(m.stallDumps, o.stallDumps...)
}

func (m *chaosMerge) reasonSummary() string {
	if len(m.reasons) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m.reasons))
	for k := range m.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = fmt.Sprintf("%s:%d", k, m.reasons[k])
	}
	return strings.Join(keys, ",")
}

func (m *chaosMerge) row(label string) []string {
	return []string{label, strconv.Itoa(m.members), strconv.Itoa(m.ok), strconv.Itoa(m.fallback),
		strconv.Itoa(m.stalled), strconv.Itoa(m.stallEps), strconv.Itoa(m.failed), strconv.Itoa(m.intact),
		fmt.Sprint(m.reinjections), fmt.Sprint(m.connRtx),
		strconv.Itoa(m.flaps), strconv.Itoa(m.removals), strconv.Itoa(m.restores),
		m.reasonSummary(), fmt.Sprint(m.events)}
}

// RunChaos executes the fleet-chaos scenario and returns the merged result,
// byte-identical at any worker count for a fixed spec.
func RunChaos(spec ChaosSpec) (*experiments.Result, error) {
	res, _, err := runChaos(spec)
	return res, err
}

// runChaos is RunChaos plus the merged outcome tally, which the adversarial
// experiment grid consumes directly instead of re-parsing the table.
func runChaos(spec ChaosSpec) (*experiments.Result, chaosMerge, error) {
	spec = spec.withDefaults()
	if _, _, ok := middlebox.AdversaryPreset(spec.Adversary); !ok {
		return nil, chaosMerge{}, fmt.Errorf("fleet: unknown adversary preset %q (have %v)",
			spec.Adversary, middlebox.AdversaryPresetNames())
	}
	adv, fault := spec.Adversary, spec.Faults.String()
	if adv == "" {
		adv = "none"
	}
	if fault == "" {
		fault = "none"
	}
	title := fmt.Sprintf("chaos: %d members, faults=%s, adversary=%s", spec.Members, fault, adv)
	var total chaosMerge
	res, err := Run[*chaosState, chaosMerge](spec.Common, "fleet-chaos", title, spec.Members, chaosScenario{&spec},
		func(res *experiments.Result, outs []chaosMerge) {
			table := experiments.NewTable(
				fmt.Sprintf("%d members across %d shards, %d KiB each, stall interval %v",
					spec.Members, len(outs), spec.TransferBytes>>10, core.StallInterval),
				"shard", "members", "ok", "fallback", "stalled", "stallEp", "failed", "intact",
				"reinject", "connRtx", "flaps", "ifdown", "ifup", "reasons", "events")
			total = addShardRows(table, outs)
			table.AddNote("invariant: every member must finish ok (intact hash, multipath), or fallback (intact hash, taxonomized reason); stalled = a stall episode or unfinished at the deadline, failed = connection error or integrity violation")
			table.AddNote("stallEp sums the members' connection stall episodes (written bytes held while DATA_ACK stands still for the stall interval)")
			if !spec.Faults.Empty() {
				table.AddNote("fault schedule: %s (per-member jitter streams via DeriveSeed)", spec.Faults.String())
			}
			if total.encodeErrors > 0 {
				table.AddNote("WIRE VIOLATION: %d captured segments rejected by the codec (option set exceeds the 40-byte TCP option space)", total.encodeErrors)
			}
			res.AddTable(table)
			res.AddSeries(shardSeries("completed members", "count", outs, func(m *chaosMerge) float64 { return float64(m.ok + m.fallback) }))
			for _, dump := range total.stallDumps {
				table.AddNote("%s", dump)
			}
		})
	return res, total, err
}

// chaosScenario builds one shard: a server replica plus the shard's members,
// each a dual-homed client with per-member fault injection and an integrity-
// checked upload.
type chaosScenario struct{ spec *ChaosSpec }

// chaosState is one shard's live members (member order), the spec link
// indices of each member's two paths, and the count still running.
type chaosState struct {
	members   []*chaosMember
	pathIdx   map[int][2]int
	remaining int
}

func (s chaosScenario) Setup(sh *Shard) (*chaosState, error) {
	spec := s.spec
	g := netem.GraphSpec{}
	g.AddHost("server")
	pathIdx := make(map[int][2]int, sh.Members())
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		primary, secondary, _ := middlebox.AdversaryPreset(spec.Adversary)
		ia := g.AddLink(netem.LinkSpec{
			Name: fmt.Sprintf("chaos%da", gi),
			A:    clientHostName(gi), B: "server",
			Config: DefaultAccessLink(2 * gi),
			Boxes:  primary,
		})
		ib := g.AddLink(netem.LinkSpec{
			Name: fmt.Sprintf("chaos%db", gi),
			A:    clientHostName(gi), B: "server",
			Config: DefaultAccessLink(2*gi + 1),
			Boxes:  secondary,
		})
		pathIdx[gi] = [2]int{ia, ib}
	}
	if err := sh.Materialize(g); err != nil {
		return nil, err
	}
	rec := sh.Probe
	st := &chaosState{pathIdx: pathIdx, remaining: sh.Members()}
	cfg := chaosConnConfig()
	srvMgr := sh.Manager("server")
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		gi := gi
		mgr := sh.Manager(clientHostName(gi))
		mgr.SetProbe(rec, gi)
		m := &chaosMember{
			spec:    spec,
			gi:      gi,
			checker: faults.NewChecker(sim.DeriveSeed(spec.Seed, chaosStream+uint64(gi)), spec.TransferBytes),
			buf:     sim.Local[chaosScratch](sh.Sim)[:],
			// Freeze the member's recording at its own completion time: the
			// shard keeps simulating for its slowest member, and post-done
			// fault/teardown events would otherwise depend on the partition.
			onDone: func() { st.remaining--; rec.Freeze(gi) },
		}
		st.members = append(st.members, m)

		port := uint16(8000 + gi - sh.Lo)
		if _, err := srvMgr.Listen(port, cfg, func(conn *core.Connection) {
			m.server = conn
			conn.OnReadable = m.drain
			conn.OnFallback = func(reason string) {
				if m.fallbackReason == "" {
					m.fallbackReason = reason
				}
			}
			conn.OnClosed = func(error) {
				m.serverClosed = true
				m.drain()
				m.maybeFinish()
			}
		}); err != nil {
			return nil, fmt.Errorf("fleet: shard %d member %d: %w", sh.Index, gi, err)
		}

		iface := mgr.Host().Interfaces()[0]
		serverAddr := iface.Path().Peer(iface).Addr()
		conn, err := mgr.Dial(iface, packet.Endpoint{Addr: serverAddr, Port: port}, cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d member %d dial: %w", sh.Index, gi, err)
		}
		m.client = conn
		conn.OnEstablished = m.pump
		conn.OnWritable = m.pump
		conn.OnFallback = func(reason string) {
			if m.fallbackReason == "" {
				m.fallbackReason = reason
			}
		}
		conn.OnClosed = func(error) {
			m.clientClosed = true
			m.maybeFinish()
		}

		// Per-member fault injection: the member's two paths, jitter stream
		// = global member index (identical across any shard partition).
		idx := pathIdx[gi]
		paths := []*netem.Path{sh.Net.Paths[idx[0]], sh.Net.Paths[idx[1]]}
		m.injector = faults.Apply(sh.Sim, spec.Faults, paths, mgr, spec.Seed, uint64(gi))
		m.injector.SetProbe(rec, gi)
	}

	return st, nil
}

func (chaosScenario) Done(st *chaosState) bool { return st.remaining == 0 }

func (chaosScenario) Collect(sh *Shard, st *chaosState) (chaosMerge, error) {
	rec := sh.Probe
	out := chaosMerge{members: sh.Members(), events: sh.probeEvents()}
	for _, m := range st.members {
		cs, ss := m.client.Stats(), core.ConnStats{}
		if m.server != nil { // never accepted
			ss = m.server.Stats()
		}
		eps := int(cs.StallEpisodes + ss.StallEpisodes)
		if eps > 0 || !m.done {
			m.outcome = outcomeStalled
			out.stallDumps = append(out.stallDumps, fmt.Sprintf(
				"member %d: %d stall episodes, finished %v\nclient: %sserver: %s",
				m.gi, eps, m.done, faults.DumpConnection(m.client), faults.DumpConnection(m.server)))
		}
		switch m.outcome {
		case outcomeOK:
			out.ok++
		case outcomeFallback:
			out.fallback++
			out.addReason(faults.ClassifyFallback(m.fallbackReason))
		case outcomeStalled:
			out.stalled++
		default:
			out.failed++
			if m.fallbackReason != "" {
				out.addReason(faults.ClassifyFallback(m.fallbackReason))
			}
		}
		if m.checker.Intact() {
			out.intact++
		}
		out.reinjections += cs.Reinjections
		out.connRtx += cs.ConnLevelRtx
		out.flaps += m.injector.Flaps
		out.removals += m.injector.Removals
		out.restores += m.injector.Restores
		out.stallEps += eps
		if rec != nil {
			// Fold the member's wire drops (both paths, both directions) into
			// its counter registry at collect time.
			idx := st.pathIdx[m.gi]
			var drops uint64
			for _, pi := range idx {
				for _, l := range []*netem.Link{sh.Net.Paths[pi].LinkAB(), sh.Net.Paths[pi].LinkBA()} {
					st := l.Stats()
					drops += st.DroppedQueue + st.DroppedRandom
				}
			}
			rec.CountFinal(m.gi, probe.CtrDrops, drops)
		}
	}
	if sh.Capture != nil {
		out.encodeErrors = sh.Capture.EncodeErrors
	}
	return out, nil
}
