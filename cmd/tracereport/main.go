// Command tracereport summarises flight-recorder output: given one or more
// `*-events.jsonl` files (or directories containing them, as written by the
// -trace-dir flag of mptcpbench / httpbench), it renders the
// event tally by kind, per-subflow cwnd timelines, watchdog stall episodes
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
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mptcpgo/internal/probe"
)

func main() {
	format := flag.String("format", "text", "output format: text | json")
	width := flag.Int("width", 64, "cwnd timeline width in columns")
	top := flag.Int("top", 8, "maximum subflow timelines to render (busiest first)")
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
	if *format == "json" {
		reports := make([]fileReport, 0, len(files))
		for _, path := range files {
			r, err := buildReport(path)
			if err != nil {
				fail(err)
			}
			if r.Events == 0 {
				empty++
			}
			reports = append(reports, r)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fail(err)
		}
	} else {
		for i, path := range files {
			if i > 0 {
				fmt.Println()
			}
			n, err := report(path, *width, *top, !*noTimeline)
			if err != nil {
				fail(err)
			}
			if n == 0 {
				empty++
			}
		}
	}
	if *requireEvents && empty > 0 {
		fmt.Fprintf(os.Stderr, "tracereport: %d of %d event files are empty\n", empty, len(files))
		os.Exit(1)
	}
}

// fileReport is the -format json summary of one events file: the same kind
// tally, stall attribution and drain-tail breakdown the text report renders,
// minus the timelines (which are a terminal visualisation, not data).
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

// buildReport parses one events file into its machine-readable summary.
func buildReport(path string) (fileReport, error) {
	r := fileReport{File: filepath.Base(path)}
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	events, err := probe.ParseJSONL(data)
	if err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	r.Events = len(events)
	if len(events) == 0 {
		return r, nil
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

	r.StallEpisodes = probe.StallEpisodes(events)
	for i, e := range events {
		if e.Kind != probe.KindStall {
			continue
		}
		r.Stalls = append(r.Stalls, stallReport{
			AtNs: int64(e.At), Member: e.Member, EntryBytes: e.A,
			Cause: stallCause(events, i),
		})
	}

	r.DrainTailNs = int64(probe.DrainTail(events))
	tails := probe.DrainTails(events)
	sort.SliceStable(tails, func(i, j int) bool { return tails[i].Tail() > tails[j].Tail() })
	for _, t := range tails {
		r.DrainTails = append(r.DrainTails, tailReport{
			Member: t.Member, Conn: t.Conn, Subflow: t.Subflow, Count: t.Count,
			StartNs: int64(t.Start), LastNs: int64(t.Last),
			LastRTONs: int64(t.LastRTO), TailNs: int64(t.Tail()),
		})
	}
	return r, nil
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

func report(path string, width, top int, timeline bool) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	events, err := probe.ParseJSONL(data)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}

	fmt.Printf("== %s ==\n", filepath.Base(path))
	if len(events) == 0 {
		fmt.Println("no events")
		return 0, nil
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
	fmt.Printf("%d events, %d members, %s .. %s\n\n",
		len(events), len(memberSet), fmtT(first), fmtT(last))

	reportKinds(events)
	reportStalls(events)
	reportDrainTail(events)
	if timeline {
		reportTimelines(events, width, top)
	}
	return len(events), nil
}

func reportKinds(events []probe.Event) {
	counts := probe.CountKinds(events)
	fmt.Println("events by kind:")
	for k, n := range counts {
		if n > 0 {
			fmt.Printf("  %-14s %d\n", probe.Kind(k).String(), n)
		}
	}
	fmt.Println()
}

// reportStalls lists watchdog stall-entry events and attributes each to the
// most recent preceding fault, RTO or subflow death on the same member.
func reportStalls(events []probe.Event) {
	n := probe.StallEpisodes(events)
	fmt.Printf("stall episodes: %d\n", n)
	for i, e := range events {
		if e.Kind != probe.KindStall {
			continue
		}
		fmt.Printf("  t=%s member=%d entry-bytes=%d cause: %s\n", fmtT(e.At), e.Member, e.A, stallCause(events, i))
	}
	fmt.Println()
}

// stallCause attributes the stall-entry event at index i to the most recent
// preceding fault, RTO, subflow death or REMOVE_ADDR on the same member
// within the lookback window. Shared by the text and JSON reports so both
// attribute identically.
func stallCause(events []probe.Event, i int) string {
	const lookback = 10 * time.Second
	e := events[i]
	for j := i - 1; j >= 0; j-- {
		p := events[j]
		if p.Member != e.Member || e.At-p.At > lookback {
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

func reportDrainTail(events []probe.Event) {
	tails := probe.DrainTails(events)
	fmt.Printf("rto drain tail: %s (max over %d subflows with RTOs)\n",
		fmtT(probe.DrainTail(events)), len(tails))
	// Worst tails first; the breakdown shows where the completion time went.
	sort.SliceStable(tails, func(i, j int) bool { return tails[i].Tail() > tails[j].Tail() })
	shown := len(tails)
	if shown > 10 {
		shown = 10
	}
	for _, t := range tails[:shown] {
		fmt.Printf("  member=%d conn=%d sf=%d: %d consecutive RTOs %s..%s, last backoff %s -> tail %s\n",
			t.Member, t.Conn, t.Subflow, t.Count, fmtT(t.Start), fmtT(t.Last), fmtT(t.LastRTO), fmtT(t.Tail()))
	}
	if shown < len(tails) {
		fmt.Printf("  ... %d more subflows\n", len(tails)-shown)
	}
	fmt.Println()
}

// sfKey identifies one subflow across the event stream.
type sfKey struct {
	member, conn, subflow int32
}

// reportTimelines renders per-subflow cwnd timelines from the congestion-
// control transition events (cc_* events carry A=cwnd at the transition).
func reportTimelines(events []probe.Event, width, top int) {
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
		fmt.Println("cwnd timelines: no cc events recorded")
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
	if top > 0 && len(keys) > top {
		fmt.Printf("cwnd timelines (%d busiest of %d subflows, from cc transition events):\n", top, len(keys))
		keys = keys[:top]
	} else {
		fmt.Printf("cwnd timelines (%d subflows, from cc transition events):\n", len(keys))
	}

	span := last - first
	if span <= 0 {
		span = 1
	}
	levels := []byte(" .:-=+*#%@")
	for _, k := range keys {
		pts := series[k]
		// Bucket by time; each column shows the max cwnd seen in its slice.
		cols := make([]int64, width)
		var peak int64
		for _, p := range pts {
			c := int(int64(p.at-first) * int64(width-1) / int64(span))
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
		line := make([]byte, width)
		for i, v := range cols {
			if v == 0 {
				v = prev
			}
			prev = v
			line[i] = levels[int(v*int64(len(levels)-1)/peak)]
		}
		fmt.Printf("  member=%-3d conn=%-3d sf=%d |%s| peak %d B (%d transitions)\n",
			k.member, k.conn, k.subflow, line, peak, len(pts))
	}
	fmt.Printf("  scale: '%c' = 0 .. '%c' = per-line peak cwnd; x spans %s .. %s\n",
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
