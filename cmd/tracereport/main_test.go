package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"testing"
)

// TestTextAndJSONAgree pins the text report byte for byte (the goldens were
// written by the binary that still analysed each file separately for text and
// for JSON) and checks that the counts the text prints are the -format json
// fields.
func TestTextAndJSONAgree(t *testing.T) {
	cases := []struct{ events, golden string }{
		{"../../internal/fleet/testdata/chaos-events.golden.jsonl", "testdata/chaos-events.report.golden.txt"},
		// Hand-written: stalls with each kind of cause, and an RTO drain tail.
		{"testdata/stalls-events.jsonl", "testdata/stalls-events.report.golden.txt"},
	}
	for _, tc := range cases {
		r, events, err := buildReport(tc.events)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		writeText(&text, r, events, true)
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), want) {
			t.Errorf("%s: text report differs from %s:\n%s", tc.events, tc.golden, text.Bytes())
		}

		// What -format json prints, read back.
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var j fileReport
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		ints := func(pattern string) []int {
			m := regexp.MustCompile(pattern).FindSubmatch(text.Bytes())
			if m == nil {
				t.Fatalf("%s: text report has no line matching %q", tc.events, pattern)
			}
			out := make([]int, len(m)-1)
			for i := range out {
				out[i], _ = strconv.Atoi(string(m[i+1]))
			}
			return out
		}
		head := ints(`(?m)^(\d+) events, (\d+) members,`)
		stallLines := len(regexp.MustCompile(`(?m)^  t=.* cause: `).FindAll(text.Bytes(), -1))
		got := []int{head[0], head[1], ints(`(?m)^stall episodes: (\d+)$`)[0], stallLines, ints(`\(max over (\d+) subflows with RTOs\)`)[0]}
		wantCounts := []int{j.Events, j.Members, j.StallEpisodes, len(j.Stalls), len(j.DrainTails)}
		if !reflect.DeepEqual(got, wantCounts) {
			t.Errorf("%s: text prints events, members, stall episodes, stall lines, drain tails = %v, json has %v", tc.events, got, wantCounts)
		}
	}
}
