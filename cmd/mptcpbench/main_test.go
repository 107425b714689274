package main

import (
	"flag"
	"strings"
	"testing"
)

// TestScenarioFlagChecking pins the rule that a -scenario run never silently
// ignores a flag: per scenario, one flag it consumes parses and one it does
// not is rejected by name.
func TestScenarioFlagChecking(t *testing.T) {
	cases := []struct {
		scenario         string
		accepted, denied []string
	}{
		{"fleet-http", []string{"-shared-link", "10mbps"}, []string{"-rate", "5"}},
		{"fleet-openloop", []string{"-rate", "5"}, []string{"-shared-link", "10mbps"}},
		{"fleet-corelink", []string{"-sizedist", "fixed:1000"}, []string{"-adversary", "rst"}},
		{"fleet-cdn", []string{"-shared-link", "10mbps"}, []string{"-trace-dir", "t"}},
		{"incast", []string{"-pcap-dir", "p"}, []string{"-faults", "flap500"}},
		{"mixed", []string{"-pcap-dir", "p"}, []string{"-probe-interval", "1s"}},
		{"fleet-chaos", []string{"-faults", "flap500"}, []string{"-duration", "1s"}},
		{"trace-overhead", []string{"-rate", "5"}, []string{"-arrival", "fixed"}},
		{"sched-equivalence", []string{"-clients", "100"}, []string{"-pcap-dir", "p"}},
	}
	if len(cases) != len(scenarios) {
		t.Fatalf("%d cases for %d registered scenarios", len(cases), len(scenarios))
	}
	for _, tc := range cases {
		base := []string{"-scenario", tc.scenario, "-quick"}
		if _, err := parseCLI(append(base, tc.accepted...), flag.ContinueOnError); err != nil {
			t.Errorf("%s %v: %v", tc.scenario, tc.accepted, err)
		}
		_, err := parseCLI(append(base, tc.denied...), flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), tc.denied[0]) {
			t.Errorf("%s %v: err = %v, want a rejection naming the flag", tc.scenario, tc.denied, err)
		}
	}

	// The combination that used to run and print a normal result.
	_, err := parseCLI(strings.Fields("-scenario incast -quick -shared-link 10mbps -rate 5 -faults flap500"), flag.ContinueOnError)
	if err == nil {
		t.Fatal("incast accepted flags it cannot honour")
	}
	for _, name := range []string{"-shared-link", "-rate", "-faults"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("rejection %q does not name %s", err, name)
		}
	}
}

// TestFlagGroupsNameRealFlags keeps the group table honest: an entry for a
// flag that does not exist would never reject anything.
func TestFlagGroupsNameRealFlags(t *testing.T) {
	fs := new(cli).flagSet(flag.ContinueOnError)
	for name := range flagGroups {
		if fs.Lookup(name) == nil {
			t.Errorf("flagGroups names undefined flag -%s", name)
		}
	}
}
