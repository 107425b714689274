package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/trace"
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

// TestLatencySamplesStayWithTheirWorld: each open-loop pool's latency
// record is its own, sized once and never stashed for a later world, since a
// fleet merges its shards' records after their worlds have closed. A record
// that crossed worlds would be overwritten by the next shard run on the
// stash. The quick fleet-openloop run, at one worker and then at two in the
// same process, must merge the same samples: per shard and in total, the
// same count, p50 and p99, equal to what a fresh process wrote to the
// golden.
func TestLatencySamplesStayWithTheirWorld(t *testing.T) {
	type summary struct {
		count    int
		p50, p99 float64
	}
	summarize := func(l latencies) summary {
		return summary{len(l), trace.Percentile(l, 50), trace.Percentile(l, 99)}
	}
	run := func(workers int) []summary {
		spec := OpenLoopSpec{Common: Common{Seed: 42, Shards: 4, Workers: workers, Quick: true}, Hosts: 32,
			Arrival: workload.Poisson(60), Sizes: workload.WebMix(), Window: 2 * time.Second}.withDefaults()
		var got []summary
		if _, err := Run[*openLoopState, openLoopOut](spec.Common, "fleet-openloop", "latency", spec.Hosts, openLoopScenario{&spec},
			func(_ *experiments.Result, outs []openLoopOut) {
				var total latencies
				for _, o := range outs {
					got = append(got, summarize(o.latencies))
					total = append(total, o.latencies...)
				}
				got = append(got, summarize(total))
			}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	one, two := run(1), run(2)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("the merged latency samples differ with the worker count:\n1 worker:  %+v\n2 workers: %+v", one, two)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "BENCH_openloop.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Tables []struct {
			Columns []string
			Rows    [][]string
		}
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	table := golden.Tables[0]
	col := func(name string) int { return slices.Index(table.Columns, name) }
	done, p50, p99 := col("done"), col("p50 ms"), col("p99 ms")
	if len(table.Rows) != len(one) || done < 0 || p50 < 0 || p99 < 0 {
		t.Fatalf("the golden's table has %d rows and columns %v", len(table.Rows), table.Columns)
	}
	for i, row := range table.Rows {
		got := []string{strconv.Itoa(one[i].count), fmt.Sprintf("%.2f", one[i].p50), fmt.Sprintf("%.2f", one[i].p99)}
		if want := []string{row[done], row[p50], row[p99]}; !slices.Equal(got, want) {
			t.Errorf("row %s: %v samples, p50 and p99; a fresh process merged %v", row[0], got, want)
		}
	}
}
