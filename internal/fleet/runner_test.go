package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
)

// fakeScenario is a workload-free scenario for exercising the runner alone:
// every shard builds a one-link graph (so the observers attach) and is done
// at once; Setup, a step or Collect fails on the configured shard. Only an
// epoch-coupled step can fail: a free-running shard that is done at once is
// never stepped.
type fakeScenario struct {
	tag                              string
	failSetup, failStep, failCollect int // shard index, -1 = never
}

var errFake = errors.New("fake scenario failure")

func (f fakeScenario) Setup(sh *Shard) (int, error) {
	g := netem.GraphSpec{}
	g.AddLink(netem.LinkSpec{Name: "l", A: "a", B: "b", SharedBA: f.tag,
		Config: netem.SymmetricPath(netem.Mbps(10), time.Millisecond, 64<<10, 0)})
	if err := sh.Materialize(g); err != nil {
		return 0, err
	}
	if sh.Index == f.failSetup {
		return 0, fmt.Errorf("setup shard %d: %w", sh.Index, errFake)
	}
	if sh.Index == f.failStep {
		// The first epoch window runs past the event budget.
		sh.Sim.MaxEvents = 1
		for i := 0; i < 3; i++ {
			sh.Sim.Schedule(time.Millisecond, func() {})
		}
	}
	return sh.Index, nil
}

func (fakeScenario) Done(int) bool { return true }

func (f fakeScenario) Collect(sh *Shard, st int) (int, error) {
	if sh.Index == f.failCollect {
		return 0, fmt.Errorf("collect shard %d: %w", sh.Index, errFake)
	}
	return st, nil
}

// TestRunnerErrorPaths pins what the runner owns on every path, free-running
// and epoch-coupled alike, at 1 and 4 workers: outputs arrive in shard-index
// order, a failing Setup, step or Collect on one shard surfaces as the run's
// error, and every capture file any shard opened is flushed and closed
// regardless.
func TestRunnerErrorPaths(t *testing.T) {
	const shards = 6
	for _, coupled := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, tc := range []struct {
				name                             string
				failSetup, failStep, failCollect int
			}{
				{"ok", -1, -1, -1},
				{"setup-fails", 3, -1, -1},
				{"step-fails", -1, 4, -1},
				{"collect-fails", -1, -1, 2},
			} {
				t.Run(fmt.Sprintf("coupled=%v/workers=%d/%s", coupled, workers, tc.name), func(t *testing.T) {
					dir := t.TempDir()
					c := Common{Seed: 1, Shards: shards, Workers: workers, Observers: Observers{PcapDir: dir}}
					scn := fakeScenario{failSetup: tc.failSetup, failStep: tc.failStep, failCollect: tc.failCollect}
					if coupled {
						c.Shared = &capacity.SharedLink{Name: "core", RateBps: netem.Mbps(5)}
						scn.tag = "core"
					}
					c = c.withDefaults(time.Second)

					var got []int
					_, err := Run[int, int](c, "fake", "", shards, scn, func(_ *experiments.Result, outs []int) { got = outs })
					ok := tc.name == "ok" || (tc.name == "step-fails" && !coupled)
					if tc.name == "step-fails" && coupled {
						if err == nil || !strings.Contains(err.Error(), "MaxEvents") {
							t.Fatalf("err = %v, want the failing step's", err)
						}
					} else if ok {
						if err != nil {
							t.Fatal(err)
						}
						for i, v := range got {
							if v != i {
								t.Fatalf("outs = %v, want shard-index order", got)
							}
						}
						if len(got) != shards {
							t.Fatalf("got %d outputs, want %d", len(got), shards)
						}
					} else if !errors.Is(err, errFake) {
						t.Fatalf("err = %v, want the scenario's failure", err)
					}

					// An open PcapWriter holds the file header in its buffer:
					// only Close puts the 24 bytes on disk.
					files, _ := filepath.Glob(filepath.Join(dir, "fake-shard*.pcap"))
					if len(files) == 0 || (ok && len(files) != shards) {
						t.Fatalf("found %d capture files", len(files))
					}
					for _, f := range files {
						if info, err := os.Stat(f); err != nil || info.Size() < 24 {
							t.Errorf("%s was left open (size %d, err %v)", filepath.Base(f), info.Size(), err)
						}
					}
				})
			}
		}
	}
}

// TestRunnerRejectsUntaggedSharedLink: declaring a bottleneck on a scenario
// that routes nothing through it must fail, not run unenforced.
func TestRunnerRejectsUntaggedSharedLink(t *testing.T) {
	c := Common{Seed: 1, Shared: &capacity.SharedLink{RateBps: netem.Mbps(5)}}.withDefaults(time.Second)
	_, err := Run[int, int](c, "fake", "", 2, fakeScenario{failSetup: -1, failStep: -1, failCollect: -1}, func(*experiments.Result, []int) {})
	if err == nil {
		t.Fatal("run with an untagged shared link succeeded")
	}
}
