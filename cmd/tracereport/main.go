// Command tracereport summarises flight-recorder output: given one or more
// `*-events.jsonl` files (or directories containing them, as written by the
// -trace-dir flag of mptcpbench -scenario and -run), it renders the
// event tally by kind, per-subflow cwnd timelines, connection stall episodes
// with cause attribution, and the RTO drain-tail breakdown.
//
// Usage:
//
//	tracereport traces/                       # every *-events.jsonl inside
//	tracereport traces/fleet-chaos-events.jsonl
//	tracereport -format json traces/          # machine-readable summary
//	tracereport -require-events traces/       # exit 1 if any file is empty (CI)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mptcpgo/internal/probe"
)

func main() {
	format := flag.String("format", "text", "output format: text | json")
	noTimeline := flag.Bool("no-timeline", false, "skip the per-subflow cwnd timelines")
	requireEvents := flag.Bool("require-events", false, "exit with status 1 if any input file holds zero events")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracereport [flags] <events.jsonl or trace dir>...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		fail(fmt.Errorf("unknown output format %q (want text or json)", *format))
	}

	files, err := collectFiles(flag.Args())
	if err != nil {
		fail(err)
	}
	if len(files) == 0 {
		fail(fmt.Errorf("no *-events.jsonl files found under %s", strings.Join(flag.Args(), ", ")))
	}

	empty := 0
	reports := make([]fileReport, 0, len(files))
	for i, path := range files {
		r, events, err := buildReport(path)
		if err != nil {
			fail(err)
		}
		if r.Events == 0 {
			empty++
		}
		reports = append(reports, r)
		if *format == "text" {
			if i > 0 {
				fmt.Println()
			}
			writeText(os.Stdout, r, events, !*noTimeline)
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fail(err)
		}
	}
	if *requireEvents && empty > 0 {
		fmt.Fprintf(os.Stderr, "tracereport: %d of %d event files are empty\n", empty, len(files))
		os.Exit(1)
	}
}

// fileReport is the summary of one events file: the kind tally, stall
// attribution and drain-tail breakdown. -format json encodes it, the text
// report renders it and adds the timelines (a terminal visualisation, not
// data), so the two formats cannot disagree.
type fileReport struct {
	File          string            `json:"file"`
	Events        int               `json:"events"`
	Members       int               `json:"members"`
	FirstNs       int64             `json:"first_ns"`
	LastNs        int64             `json:"last_ns"`
	Kinds         map[string]uint64 `json:"kinds,omitempty"`
	StallEpisodes int               `json:"stall_episodes"`
	Stalls        []stallReport     `json:"stalls,omitempty"`
	DrainTailNs   int64             `json:"drain_tail_ns"`
	DrainTails    []tailReport      `json:"drain_tails,omitempty"`
}

type stallReport struct {
	AtNs       int64  `json:"at_ns"`
	Member     int32  `json:"member"`
	EntryBytes int64  `json:"entry_bytes"`
	Cause      string `json:"cause"`
}

type tailReport struct {
	Member    int32 `json:"member"`
	Conn      int32 `json:"conn"`
	Subflow   int32 `json:"subflow"`
	Count     int   `json:"count"`
	StartNs   int64 `json:"start_ns"`
	LastNs    int64 `json:"last_ns"`
	LastRTONs int64 `json:"last_rto_ns"`
	TailNs    int64 `json:"tail_ns"`
}

// buildReport parses one events file into its summary; the events are
// returned for the timelines.
func buildReport(path string) (fileReport, []probe.Event, error) {
	r := fileReport{File: filepath.Base(path)}
	data, err := os.ReadFile(path)
	if err != nil {
		return r, nil, err
	}
	events, err := probe.ParseJSONL(data)
	if err != nil {
		return r, nil, fmt.Errorf("%s: %w", path, err)
	}
	r.Events = len(events)
	if len(events) == 0 {
		return r, nil, nil
	}
	first, last := events[0].At, events[0].At
	memberSet := map[int32]bool{}
	for _, e := range events {
		if e.At < first {
			first = e.At
		}
		if e.At > last {
			last = e.At
		}
		memberSet[e.Member] = true
	}
	r.Members = len(memberSet)
	r.FirstNs, r.LastNs = int64(first), int64(last)

	r.Kinds = map[string]uint64{}
	for k, n := range probe.CountKinds(events) {
		if n > 0 {
			r.Kinds[probe.Kind(k).String()] = n
		}
	}

	for i, e := range events {
		if e.Kind != probe.KindStall {
			continue
		}
		r.Stalls = append(r.Stalls, stallReport{
			AtNs: int64(e.At), Member: e.Member, EntryBytes: e.A,
			Cause: stallCause(events, i),
		})
	}
	r.StallEpisodes = len(r.Stalls)

	r.DrainTailNs = int64(probe.DrainTail(events))
	tails := probe.DrainTails(events)
	// Worst tails first; the breakdown shows where the completion time went.
	sort.SliceStable(tails, func(i, j int) bool { return tails[i].Tail() > tails[j].Tail() })
	for _, t := range tails {
		r.DrainTails = append(r.DrainTails, tailReport{
			Member: t.Member, Conn: t.Conn, Subflow: t.Subflow, Count: t.Count,
			StartNs: int64(t.Start), LastNs: int64(t.Last),
			LastRTONs: int64(t.LastRTO), TailNs: int64(t.Tail()),
		})
	}
	return r, events, nil
}

// collectFiles expands each argument: a directory yields every
// *-events.jsonl inside (sorted by name), a file is taken as-is.
func collectFiles(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*-events.jsonl"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	return files, nil
}

// timelineWidth is a cwnd timeline's width in columns, and timelineTop the
// most subflow timelines a file renders (busiest first).
const (
	timelineWidth = 64
	timelineTop   = 8
)

// writeText renders one file's report for a terminal.
func writeText(w io.Writer, r fileReport, events []probe.Event, timeline bool) {
	fmt.Fprintf(w, "== %s ==\n", r.File)
	if r.Events == 0 {
		fmt.Fprintln(w, "no events")
		return
	}
	fmt.Fprintf(w, "%d events, %d members, %s .. %s\n\n",
		r.Events, r.Members, fmtT(time.Duration(r.FirstNs)), fmtT(time.Duration(r.LastNs)))

	fmt.Fprintln(w, "events by kind:")
	// Kind order, not the map's: the tally array has one slot per kind.
	for k := range probe.CountKinds(nil) {
		if n := r.Kinds[probe.Kind(k).String()]; n > 0 {
			fmt.Fprintf(w, "  %-14s %d\n", probe.Kind(k).String(), n)
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "stall episodes: %d\n", r.StallEpisodes)
	for _, st := range r.Stalls {
		fmt.Fprintf(w, "  t=%s member=%d entry-bytes=%d cause: %s\n", fmtT(time.Duration(st.AtNs)), st.Member, st.EntryBytes, st.Cause)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "rto drain tail: %s (max over %d subflows with RTOs)\n",
		fmtT(time.Duration(r.DrainTailNs)), len(r.DrainTails))
	shown := len(r.DrainTails)
	if shown > 10 {
		shown = 10
	}
	for _, t := range r.DrainTails[:shown] {
		fmt.Fprintf(w, "  member=%d conn=%d sf=%d: %d consecutive RTOs %s..%s, last backoff %s -> tail %s\n",
			t.Member, t.Conn, t.Subflow, t.Count, fmtT(time.Duration(t.StartNs)), fmtT(time.Duration(t.LastNs)),
			fmtT(time.Duration(t.LastRTONs)), fmtT(time.Duration(t.TailNs)))
	}
	if shown < len(r.DrainTails) {
		fmt.Fprintf(w, "  ... %d more subflows\n", len(r.DrainTails)-shown)
	}
	fmt.Fprintln(w)

	if timeline {
		writeTimelines(w, events)
	}
}

// stallCause attributes the stall-entry event at index i to the most recent
// preceding fault, RTO, subflow death or REMOVE_ADDR on the same member
// within the lookback window before the stall began (its detection time less
// B, the time since the last progress).
func stallCause(events []probe.Event, i int) string {
	const lookback = 10 * time.Second
	e := events[i]
	start := e.At - time.Duration(e.B)
	for j := i - 1; j >= 0; j-- {
		p := events[j]
		if p.Member != e.Member || start-p.At > lookback {
			// Events are time-ordered per member, so once the window is
			// exceeded for this member nothing earlier can qualify.
			if p.Member == e.Member {
				break
			}
			continue
		}
		switch p.Kind {
		case probe.KindFaultAction:
			return fmt.Sprintf("fault %s path=%d at %s (-%s)",
				probe.FaultName(p.A), p.B, fmtT(p.At), fmtT(e.At-p.At))
		case probe.KindRTO:
			return fmt.Sprintf("rto x%d (backed-off %s) on conn=%d sf=%d at %s (-%s)",
				p.A, time.Duration(p.B), p.Conn, p.Subflow, fmtT(p.At), fmtT(e.At-p.At))
		case probe.KindSubflowFailed:
			return fmt.Sprintf("subflow death conn=%d sf=%d at %s (-%s)",
				p.Conn, p.Subflow, fmtT(p.At), fmtT(e.At-p.At))
		case probe.KindAddrRemoved:
			return fmt.Sprintf("REMOVE_ADDR conn=%d at %s (-%s)",
				p.Conn, fmtT(p.At), fmtT(e.At-p.At))
		}
	}
	return "no prior fault/RTO on this member within 10s"
}

// sfKey identifies one subflow across the event stream.
type sfKey struct {
	member, conn, subflow int32
}

// writeTimelines renders per-subflow cwnd timelines from the congestion-
// control transition events (cc_* events carry A=cwnd at the transition).
func writeTimelines(w io.Writer, events []probe.Event) {
	type point struct {
		at   time.Duration
		cwnd int64
	}
	series := map[sfKey][]point{}
	var first, last time.Duration
	first = -1
	for _, e := range events {
		switch e.Kind {
		case probe.KindCCSlowStart, probe.KindCCAvoidance, probe.KindCCRecovery:
		default:
			continue
		}
		k := sfKey{e.Member, e.Conn, e.Subflow}
		series[k] = append(series[k], point{e.At, e.A})
		if first < 0 || e.At < first {
			first = e.At
		}
		if e.At > last {
			last = e.At
		}
	}
	if len(series) == 0 {
		fmt.Fprintln(w, "cwnd timelines: no cc events recorded")
		return
	}
	keys := make([]sfKey, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	// Busiest subflows first; ties broken by identity for stable output.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if len(series[a]) != len(series[b]) {
			return len(series[a]) > len(series[b])
		}
		if a.member != b.member {
			return a.member < b.member
		}
		if a.conn != b.conn {
			return a.conn < b.conn
		}
		return a.subflow < b.subflow
	})
	if len(keys) > timelineTop {
		fmt.Fprintf(w, "cwnd timelines (%d busiest of %d subflows, from cc transition events):\n", timelineTop, len(keys))
		keys = keys[:timelineTop]
	} else {
		fmt.Fprintf(w, "cwnd timelines (%d subflows, from cc transition events):\n", len(keys))
	}

	span := last - first
	if span <= 0 {
		span = 1
	}
	levels := []byte(" .:-=+*#%@")
	for _, k := range keys {
		pts := series[k]
		// Bucket by time; each column shows the max cwnd seen in its slice.
		cols := make([]int64, timelineWidth)
		var peak int64
		for _, p := range pts {
			c := int(int64(p.at-first) * int64(timelineWidth-1) / int64(span))
			if p.cwnd > cols[c] {
				cols[c] = p.cwnd
			}
			if p.cwnd > peak {
				peak = p.cwnd
			}
		}
		if peak == 0 {
			peak = 1
		}
		// Carry the last seen value forward through empty columns so the
		// line reads as a timeline, not a scatter.
		var prev int64
		line := make([]byte, timelineWidth)
		for i, v := range cols {
			if v == 0 {
				v = prev
			}
			prev = v
			line[i] = levels[int(v*int64(len(levels)-1)/peak)]
		}
		fmt.Fprintf(w, "  member=%-3d conn=%-3d sf=%d |%s| peak %d B (%d transitions)\n",
			k.member, k.conn, k.subflow, line, peak, len(pts))
	}
	fmt.Fprintf(w, "  scale: '%c' = 0 .. '%c' = per-line peak cwnd; x spans %s .. %s\n",
		levels[0], levels[len(levels)-1], fmtT(first), fmtT(last))
}

// fmtT renders a sim time compactly (ms below 10s, seconds above).
func fmtT(d time.Duration) string {
	if d < 10*time.Second {
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
