package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// eventJSON is the stable JSONL wire form of an Event.
type eventJSON struct {
	T       int64  `json:"t_ns"`
	Kind    string `json:"kind"`
	Member  int32  `json:"member"`
	Conn    int32  `json:"conn"`
	Subflow int32  `json:"subflow"`
	A       int64  `json:"a"`
	B       int64  `json:"b"`
}

// AppendJSONL appends one JSONL line per event to dst and returns the
// extended buffer. Lines are emitted in slice order; callers pass events in
// member-ascending, time-ascending order so output is deterministic.
func AppendJSONL(dst []byte, events []Event) []byte {
	for _, e := range events {
		line, err := json.Marshal(eventJSON{
			T: int64(e.At), Kind: e.Kind.String(),
			Member: e.Member, Conn: e.Conn, Subflow: e.Subflow,
			A: e.A, B: e.B,
		})
		if err != nil {
			continue
		}
		dst = append(dst, line...)
		dst = append(dst, '\n')
	}
	return dst
}

// ParseJSONL decodes a JSONL event stream produced by AppendJSONL.
func ParseJSONL(data []byte) ([]Event, error) {
	var out []Event
	for lineNo, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ej eventJSON
		if err := json.Unmarshal(line, &ej); err != nil {
			return nil, fmt.Errorf("events line %d: %w", lineNo+1, err)
		}
		k, ok := KindFromString(ej.Kind)
		if !ok {
			return nil, fmt.Errorf("events line %d: unknown kind %q", lineNo+1, ej.Kind)
		}
		out = append(out, Event{
			At: time.Duration(ej.T), Kind: k,
			Member: ej.Member, Conn: ej.Conn, Subflow: ej.Subflow,
			A: ej.A, B: ej.B,
		})
	}
	return out, nil
}

// KindFromString maps a stable kind name back to its Kind.
func KindFromString(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// CountKinds tallies events per kind.
func CountKinds(events []Event) [numKinds]uint64 {
	var out [numKinds]uint64
	for _, e := range events {
		if int(e.Kind) < len(out) {
			out[e.Kind]++
		}
	}
	return out
}

// TailRun describes one subflow's final run of consecutive retransmission
// timeouts: the first RTO of the trailing backoff run through the last RTO,
// plus that timeout's backed-off RTO (the earliest moment the retransmission
// could have gone out).
type TailRun struct {
	Member, Conn, Subflow int32
	Start, Last           time.Duration
	LastRTO               time.Duration
	Count                 int
}

// Tail is the run's drain-tail duration.
func (t TailRun) Tail() time.Duration { return t.Last - t.Start + t.LastRTO }

// DrainTails extracts every subflow's trailing RTO run from an event stream,
// sorted by (member, conn, subflow). Subflows with no RTO events are absent.
func DrainTails(events []Event) []TailRun {
	type key struct {
		member, conn, subflow int32
	}
	type run struct {
		TailRun
		prevA int64
	}
	runs := make(map[key]*run)
	order := make([]key, 0, 8)
	for _, e := range events {
		if e.Kind != KindRTO {
			continue
		}
		k := key{e.Member, e.Conn, e.Subflow}
		r := runs[k]
		if r == nil {
			r = &run{TailRun: TailRun{Member: e.Member, Conn: e.Conn, Subflow: e.Subflow}}
			runs[k] = r
			order = append(order, k)
		}
		if r.prevA == 0 || e.A <= r.prevA {
			// Backoff counter reset (an ACK intervened): a new run starts.
			r.Start = e.At
			r.Count = 0
		}
		r.Last = e.At
		r.LastRTO = time.Duration(e.B)
		r.prevA = e.A
		r.Count++
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.member != b.member {
			return a.member < b.member
		}
		if a.conn != b.conn {
			return a.conn < b.conn
		}
		return a.subflow < b.subflow
	})
	out := make([]TailRun, 0, len(order))
	for _, k := range order {
		out = append(out, runs[k].TailRun)
	}
	return out
}

// DrainTail measures the RTO drain tail in an event stream: the maximum
// TailRun duration across subflows — how long completion trails the last
// useful delivery because senders sit in exponential backoff (the ROADMAP
// "16 KB flow takes 20+ s after deep loss" number).
func DrainTail(events []Event) time.Duration {
	var max time.Duration
	for _, r := range DrainTails(events) {
		if tail := r.Tail(); tail > max {
			max = tail
		}
	}
	return max
}

// FaultName renders the A payload of a KindFaultAction event.
func FaultName(code int64) string {
	names := [...]string{
		FaultLinkDown:    "link_down",
		FaultLinkUp:      "link_up",
		FaultLossOn:      "loss_on",
		FaultLossOff:     "loss_off",
		FaultSqueeze:     "squeeze",
		FaultRestoreRate: "restore_rate",
		FaultIfaceDown:   "iface_down",
		FaultIfaceUp:     "iface_up",
	}
	if code >= 0 && int(code) < len(names) {
		return names[code]
	}
	return fmt.Sprintf("fault_%d", code)
}
