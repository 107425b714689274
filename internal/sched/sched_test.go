package sched

import (
	"testing"
	"time"
)

type fakeCandidate struct {
	srtt   time.Duration
	space  int
	usable bool
	backup bool
}

func (f fakeCandidate) SRTT() time.Duration { return f.srtt }
func (f fakeCandidate) SendSpace() int      { return f.space }
func (f fakeCandidate) Usable() bool        { return f.usable }
func (f fakeCandidate) Backup() bool        { return f.backup }

func TestLowestRTTPicksFastestWithSpace(t *testing.T) {
	s := LowestRTT{}
	cands := []Candidate{
		fakeCandidate{srtt: 10 * time.Millisecond, space: 0, usable: true},     // fast but full
		fakeCandidate{srtt: 200 * time.Millisecond, space: 5000, usable: true}, // slow
		fakeCandidate{srtt: 50 * time.Millisecond, space: 5000, usable: true},  // should win
	}
	if got := s.Pick(cands, 1460); got != 2 {
		t.Fatalf("Pick = %d, want 2", got)
	}
}

func TestLowestRTTNoCandidate(t *testing.T) {
	s := LowestRTT{}
	cands := []Candidate{
		fakeCandidate{srtt: 10 * time.Millisecond, space: 100, usable: true},
		fakeCandidate{srtt: 20 * time.Millisecond, space: 0, usable: false},
	}
	if got := s.Pick(cands, 1460); got != -1 {
		t.Fatalf("expected no pick, got %d", got)
	}
}

func TestBackupOnlyUsedWhenNoRegular(t *testing.T) {
	s := LowestRTT{}
	cands := []Candidate{
		fakeCandidate{srtt: 5 * time.Millisecond, space: 5000, usable: true, backup: true},
		fakeCandidate{srtt: 100 * time.Millisecond, space: 5000, usable: true},
	}
	if got := s.Pick(cands, 1000); got != 1 {
		t.Fatalf("regular subflow must be preferred over backup, got %d", got)
	}
	cands[1] = fakeCandidate{usable: false}
	if got := s.Pick(cands, 1000); got != 0 {
		t.Fatalf("backup must be used when no regular subflow is usable, got %d", got)
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"lowest-rtt", "round-robin", "unknown"} {
		if New(name) != (LowestRTT{}) {
			t.Fatalf("New(%q) is not lowest-rtt", name)
		}
	}
}
