package fleet

import (
	"fmt"
	"strconv"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/trace"
)

// IncastSpec describes the incast/fan-in scenario: many synchronized senders
// each push one fixed-size block to a single aggregator over the N-host star
// graph, the barrier-synchronized partition/aggregate pattern of datacenter
// storage and MapReduce shuffles. Shards partition the senders; each shard
// owns an aggregator replica.
type IncastSpec struct {
	Common
	// Senders is the total number of senders.
	Senders int
	// BlockSize is the bytes each sender transfers (default 256 KB).
	BlockSize int
	// Link configures each sender's access link to the aggregator; zero
	// selects a gigabit link with a shallow 64 KB queue.
	Link netem.PathConfig
	// Conn is the sender connection configuration; nil selects single-path
	// TCP (one link per sender, so multipath adds nothing).
	Conn *core.Config
}

func (s IncastSpec) withDefaults() IncastSpec {
	s.Common = s.Common.withDefaults(DefaultDeadline)
	if s.BlockSize <= 0 {
		s.BlockSize = 256 << 10
	}
	if s.Link == (netem.PathConfig{}) {
		s.Link = netem.SymmetricPath(netem.Gbps(1), 100*time.Microsecond, 64<<10, 0)
	}
	if s.Conn == nil {
		conn := core.TCPOnlyConfig()
		conn.SendBufBytes = 256 << 10
		conn.RecvBufBytes = 256 << 10
		s.Conn = &conn
	}
	return s
}

// burstOut is a synchronized-start transfer tally — one shard's, or the
// fleet's: per-member completion times (ms, member order), received bytes
// and the event count. incast (fan-in to an aggregator) and fleet-cdn
// (fan-out from an origin) both report it.
type burstOut struct {
	members     int
	finished    int
	failed      int
	bytes       uint64
	completions []float64
	events      uint64
}

func (m *burstOut) merge(o burstOut) {
	m.members += o.members
	m.finished += o.finished
	m.failed += o.failed
	m.bytes += o.bytes
	m.completions = append(m.completions, o.completions...)
	m.events += o.events
}

func (m *burstOut) slowestMs() float64 { return trace.Max(m.completions) }

// goodputMbps is bytes transferred over the barrier window — up to the
// slowest completion — in Mbps.
func (m *burstOut) goodputMbps() float64 {
	slowest := m.slowestMs()
	if slowest <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / (slowest / 1e3) / 1e6
}

func (m *burstOut) row(label string) []string {
	return []string{label, strconv.Itoa(m.members), strconv.Itoa(m.finished), strconv.Itoa(m.failed),
		fmtMB(m.bytes), fmt.Sprintf("%.2f", m.slowestMs()),
		fmt.Sprintf("%.2f", trace.Percentile(m.completions, 95)),
		fmt.Sprintf("%.1f", m.goodputMbps()), fmt.Sprint(m.events)}
}

// renderBurst fills a synchronized-start result: the per-shard table under
// heading (members names the member column), its note, and the slowest-
// completion and goodput series.
func renderBurst(res *experiments.Result, outs []burstOut, heading, members, goodputSeries, note string) {
	table := experiments.NewTable(heading,
		"shard", members, "finished", "failed", "MB", "slowest ms", "p95 ms", "goodput Mbps", "events")
	addShardRows(table, outs)
	table.AddNote("%s", note)
	res.AddTable(table)
	res.AddSeries(shardSeries("slowest completion", "ms", outs, (*burstOut).slowestMs))
	res.AddSeries(shardSeries(goodputSeries, "Mbps", outs, (*burstOut).goodputMbps))
}

// RunIncast executes the incast scenario and returns the merged result.
func RunIncast(spec IncastSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	return Run[*incastState, burstOut](spec.Common, "incast", "synchronized fan-in to one aggregator", spec.Senders, incastScenario{&spec},
		func(res *experiments.Result, outs []burstOut) {
			renderBurst(res, outs,
				fmt.Sprintf("%d senders × %sMB blocks across %d shards", spec.Senders, fmtMB(uint64(spec.BlockSize)), len(outs)),
				"senders", "aggregate goodput",
				"completion time is per-sender block transfer time; fleet goodput divides total bytes by the slowest completion (the fan-in barrier)")
		})
}

func senderHostName(i int) string { return fmt.Sprintf("s%05d", i) }

// incastScenario builds one aggregator replica plus the shard's senders; the
// fan-in runs until every block is delivered.
type incastScenario struct{ spec *IncastSpec }

// incastState is one shard's live fan-in: the tally the aggregator fills as
// blocks complete, and the blocks still outstanding.
type incastState struct {
	out       burstOut
	remaining int
}

func (s incastScenario) Setup(sh *Shard) (*incastState, error) {
	spec := s.spec
	g := netem.GraphSpec{}
	g.AddHost("agg")
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		g.AddLink(netem.LinkSpec{
			Name: fmt.Sprintf("fanin%d", gi),
			A:    senderHostName(gi), B: "agg", Config: spec.Link,
		})
	}
	if err := sh.Materialize(g); err != nil {
		return nil, err
	}
	st := &incastState{out: burstOut{members: sh.Members()}, remaining: sh.Members()}
	out := &st.out

	// The aggregator drains every connection; a sender's block counts as
	// complete the moment its last byte is delivered in order (the metric
	// incast cares about — not the later close handshake).
	aggCfg := *spec.Conn
	aggCfg.EnableMPTCP = true // accept MPTCP and plain-TCP senders alike
	if _, err := sh.Manager("agg").Listen(80, aggCfg, func(c *core.Connection) {
		received := 0
		completed := false
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
				out.bytes += uint64(len(data))
			}
			if !completed && received >= spec.BlockSize {
				completed = true
				out.finished++
				out.completions = append(out.completions, float64(sh.Sim.Now())/float64(time.Millisecond))
				st.remaining--
			}
			if c.EOF() {
				c.Close()
			}
		}
	}); err != nil {
		return nil, err
	}
	// All senders dial at t=0: the fan-in is barrier-synchronized, which is
	// exactly what makes incast hard.
	payload := make([]byte, 32<<10)
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		mgr := sh.Manager(senderHostName(gi))
		iface := mgr.Host().Interfaces()[0]
		conn, err := mgr.Dial(iface, packet.Endpoint{Addr: iface.Path().Peer(iface).Addr(), Port: 80}, *spec.Conn)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d sender %d: %w", sh.Index, gi, err)
		}
		written := 0
		pump := func() {
			for written < spec.BlockSize {
				n := len(payload)
				if n > spec.BlockSize-written {
					n = spec.BlockSize - written
				}
				w := conn.Write(payload[:n])
				if w == 0 {
					return
				}
				written += w
			}
			conn.Close() // block fully queued: end the stream (DATA_FIN/FIN)
		}
		conn.OnEstablished = pump
		conn.OnWritable = pump
	}
	return st, nil
}

func (incastScenario) Done(st *incastState) bool { return st.remaining == 0 }

func (incastScenario) Collect(sh *Shard, st *incastState) (burstOut, error) {
	st.out.failed = st.out.members - st.out.finished // blocks still incomplete at the deadline
	st.out.events = sh.probeEvents()
	return st.out, nil
}
