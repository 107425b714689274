package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mptcpgo/internal/probe"
	"mptcpgo/internal/telemetry"
)

// TraceSpec describes flight-recorder capture: where the files go and how
// densely the per-subflow time series samples. The zero value disables
// capture entirely.
type TraceSpec struct {
	// Dir is the output directory; empty disables capture.
	Dir string
	// ProbeInterval is the time-series cadence (0 = events only).
	ProbeInterval time.Duration
	// RunInfo, when set, is written alongside the trace files as
	// `<name>-runinfo.json` (the configuration/environment portion only —
	// wall-clock results are machine-dependent and stay out of trace
	// directories, whose trace.json contents are byte-comparable goldens).
	RunInfo *telemetry.RunInfo
}

// Enabled reports whether capture is on.
func (t TraceSpec) Enabled() bool { return t.Dir != "" }

// WriteTraceFiles writes the flight-recorder files of a run whose recorders are
// recs (fleet callers pass them in shard-index order) into spec.Dir:
// `<name>-trace.json`, the counter registry and per-subflow samples as a
// Result titled "<title> (flight recorder)", and `<name>-events.jsonl`, the
// merged typed event stream. A disabled spec writes nothing.
func WriteTraceFiles(spec TraceSpec, name, title string, seed uint64, quick bool, recs []*probe.Recorder) error {
	if !spec.Enabled() {
		return nil
	}
	// The merged stream is in recorder order (fleet shards in index order),
	// members ascending within each: global-member-ascending, time-ascending
	// within a member. Nil recorders hold no members.
	var events []probe.Event
	for _, r := range recs {
		for m := r.Lo(); m < r.Lo()+r.Members(); m++ {
			events = r.AppendEvents(events, m)
		}
	}
	res := traceResult(name+"-trace", title+" (flight recorder)", seed, quick, recs)
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(spec.Dir, name+"-trace.json"))
	if err != nil {
		return err
	}
	if err := res.JSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(spec.Dir, name+"-events.jsonl"), probe.AppendJSONL(nil, events), 0o644); err != nil {
		return err
	}
	if spec.RunInfo != nil {
		// Provenance sidecar: trace.json itself must stay machine-independent,
		// so the runinfo (which records go version, CPU count, VCS state) rides
		// next to it instead of inside it.
		if err := spec.RunInfo.Config().WriteFile(filepath.Join(spec.Dir, name+"-runinfo.json")); err != nil {
			return err
		}
	}
	return nil
}

// traceResult renders what only the recorders hold — counter registry and
// per-subflow time series — as a Result, so the trace reuses the standard
// text/JSON/CSV encoders; the event stream, and every tally of it, lives in
// `<name>-events.jsonl`. A trace file is a function of (seed, scenario),
// byte-comparable across machines and worker counts.
func traceResult(id, title string, seed uint64, quick bool, recs []*probe.Recorder) *Result {
	res := &Result{ID: id, Title: title, Seed: seed, Quick: quick}

	// Counter registry: one row per member, in global member order.
	reg := NewTable("counter registry (per member)", counterColumns()...)
	var total [probe.NumCounters]uint64
	var totalEvents, totalDropped, samplesDropped uint64
	members := 0
	for _, r := range recs {
		if r == nil {
			continue
		}
		for m := r.Lo(); m < r.Lo()+r.Members(); m++ {
			ctr := r.Counters(m)
			row := make([]string, 0, len(ctr)+2)
			row = append(row, fmt.Sprintf("%d", m))
			for i, v := range ctr {
				total[i] += v
				row = append(row, fmt.Sprintf("%d", v))
			}
			row = append(row, fmt.Sprintf("%d", r.EventCount(m)))
			reg.AddRow(row...)
			totalEvents += uint64(r.EventCount(m))
			totalDropped += r.Dropped(m)
			samplesDropped += r.SamplesDropped(m)
			members++
		}
	}
	allRow := make([]string, 0, len(total)+2)
	allRow = append(allRow, "all")
	for _, v := range total {
		allRow = append(allRow, fmt.Sprintf("%d", v))
	}
	allRow = append(allRow, fmt.Sprintf("%d", totalEvents))
	reg.AddRow(allRow...)
	capped := "" // existing traces keep their bytes while no sample is dropped
	if samplesDropped > 0 {
		capped = fmt.Sprintf("; %d samples dropped (per-member sample cap)", samplesDropped)
	}
	reg.AddNote("%d members; %d events retained, %d overwritten (flight-recorder rings)%s", members, totalEvents, totalDropped, capped)
	res.AddTable(reg)

	// Per-subflow time series, when sampling was on.
	samples := NewTable("per-subflow samples",
		"t ms", "member", "conn", "subflow", "cwnd", "ssthresh", "srtt ms", "rto ms", "inflight", "sent", "reinject", "alpha")
	for _, r := range recs {
		if r == nil {
			continue
		}
		for m := r.Lo(); m < r.Lo()+r.Members(); m++ {
			for _, s := range r.Samples(m) {
				samples.AddRow(
					fmt.Sprintf("%.1f", float64(s.At)/float64(time.Millisecond)),
					fmt.Sprintf("%d", s.Member),
					fmt.Sprintf("%d", s.Conn),
					fmt.Sprintf("%d", s.Subflow),
					fmt.Sprintf("%d", s.Cwnd),
					fmt.Sprintf("%d", s.Ssthresh),
					fmt.Sprintf("%.2f", float64(s.SRTT)/float64(time.Millisecond)),
					fmt.Sprintf("%.1f", float64(s.RTO)/float64(time.Millisecond)),
					fmt.Sprintf("%d", s.Inflight),
					fmt.Sprintf("%d", s.SentBytes),
					fmt.Sprintf("%d", s.ReinjBytes),
					fmt.Sprintf("%.3f", s.Alpha),
				)
			}
		}
	}
	if len(samples.Rows) > 0 {
		res.AddTable(samples)
	}
	return res
}

// counterColumns is the registry table header: member, one column per
// counter, plus the retained-event count.
func counterColumns() []string {
	cols := make([]string, 0, int(probe.NumCounters)+2)
	cols = append(cols, "member")
	for c := probe.Counter(0); c < probe.NumCounters; c++ {
		cols = append(cols, c.String())
	}
	cols = append(cols, "events")
	return cols
}
