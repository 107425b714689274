package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/workload"
)

// gcWitness stands for a shard's simulator: only an event pending on that
// simulator holds it, so its finalizer runs once the simulator is garbage.
// A finalizer on the *sim.Simulator itself would never run, since the
// simulator reaches itself (through its events, its hosts, its connections),
// and the runtime does not finalize such an object.
type gcWitness struct {
	shard int
	_     [32]byte // large enough for an allocation of its own
}

// witnessed wraps a scenario and hangs a witness on every shard's simulator
// once the shard is set up.
type witnessed[S any, T any] struct {
	Scenario[S, T]
	freed chan int
	fired *atomic.Bool
}

func (w witnessed[S, T]) Setup(sh *Shard) (S, error) {
	st, err := w.Scenario.Setup(sh)
	if err == nil {
		watchSimulator(sh.Sim, sh.Index, w.freed, w.fired)
	}
	return st, err
}

// watchSimulator hangs a witness on s: an event far past any run's deadline,
// which fires only if the run steps that far (fired is then set, and the
// witness proves nothing).
func watchSimulator(s *sim.Simulator, id int, freed chan<- int, fired *atomic.Bool) {
	w := &gcWitness{shard: id}
	runtime.SetFinalizer(w, func(w *gcWitness) { freed <- w.shard })
	s.Schedule(1000*time.Hour, func() {
		fired.Store(true)
		runtime.KeepAlive(w)
	})
}

// awaitCollected collects garbage until n witnesses have been finalized.
func awaitCollected(t *testing.T, freed <-chan int, n int) {
	t.Helper()
	got := map[int]bool{}
	for try := 0; try < 50 && len(got) < n; try++ {
		runtime.GC()
		runtime.Gosched() // the finalizers run on their own goroutine
		for drained := false; !drained; {
			select {
			case id := <-freed:
				got[id] = true
			default:
				drained = true
			}
		}
	}
	if len(got) != n {
		t.Fatalf("after the run only the simulators of shards %v were garbage-collected; want all %d", got, n)
	}
}

// TestClosedWorldsAreCollected: after a churn-shaped run (fixed 16 KiB
// flows, many more than the shards' peak of live ones) every shard's
// simulator is garbage, although the free lists of its closed world now
// serve the next one. A free object that shares its allocation with objects
// the closed world held (a slab) would keep that world alive from the next
// one's lists; a prototype that let slab-allocated lists cross doubled
// peak_rss_mb. Both of Run's paths close their worlds: free-running shards
// and the coupled epochs of a shared link.
func TestClosedWorldsAreCollected(t *testing.T) {
	for _, shared := range []bool{false, true} {
		spec := testOpenLoopSpec(2, 200)
		if shared {
			spec = testCorelinkSpec(2, 200, 20)
		}
		spec = spec.withDefaults()
		freed := make(chan int, spec.Shards)
		var fired atomic.Bool
		scn := witnessed[*openLoopState, openLoopOut]{openLoopScenario{&spec}, freed, &fired}
		if _, err := Run[*openLoopState, openLoopOut](spec.Common, "fleet-openloop", "witnessed", spec.Hosts, scn,
			func(*experiments.Result, []openLoopOut) {}); err != nil {
			t.Fatal(err)
		}
		if fired.Load() {
			t.Fatal("a shard ran to its witness event")
		}
		awaitCollected(t, freed, spec.Shards)
	}
}

// TestStashChangesNothing: worlds built from the free lists of closed ones
// produce the bytes fresh ones do. fleet-chaos warms the stash (and the
// tests before it may have), then the quick fleet-openloop and
// fleet-corelink runs must match their committed goldens, which a fresh
// process wrote, byte for byte — and fleet-chaos its own.
func TestStashChangesNothing(t *testing.T) {
	faultSpec, err := faults.Parse("flap500")
	if err != nil {
		t.Fatal(err)
	}
	quick := Common{Seed: 42, Shards: 4, Workers: 4, Quick: true}
	openLoop := func(shared *capacity.SharedLink) func() (*experiments.Result, error) {
		return func() (*experiments.Result, error) {
			c := quick
			c.Shared = shared
			return RunOpenLoop(OpenLoopSpec{Common: c, Hosts: 32, Arrival: workload.Poisson(60),
				Sizes: workload.WebMix(), Window: 2 * time.Second})
		}
	}
	for _, tc := range []struct {
		golden string
		run    func() (*experiments.Result, error)
	}{
		{"BENCH_chaos.json", func() (*experiments.Result, error) {
			return RunChaos(ChaosSpec{Common: quick, Members: 8, Faults: faultSpec, Adversary: "rst"})
		}},
		{"BENCH_openloop.json", openLoop(nil)},
		{"BENCH_corelink.json", openLoop(&capacity.SharedLink{RateBps: netem.Mbps(10)})},
	} {
		res, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := experiments.WriteResults(&got, "json", []*experiments.Result{res}); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "bench", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: a run on stashed free lists differs from the golden:\n%s", tc.golden, got.String())
		}
	}
}
