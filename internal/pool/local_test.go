package pool

import (
	"math/rand"
	"sync"
	"testing"
)

// TestNilLocalIsTheSharedPool: every method of a nil *Local is the
// package-level function of the same name, shared counters included.
func TestNilLocalIsTheSharedPool(t *testing.T) {
	var l *Local
	Recycle(Bytes(1460)) // so that the class holds a buffer to get
	before := Stats()
	b := l.Bytes(1460)
	if len(b) != 1460 || cap(b) != 2048 {
		t.Fatalf("Bytes(1460): len %d cap %d", len(b), cap(b))
	}
	if got := Stats(); got.Gets != before.Gets+1 {
		t.Fatalf("a get through a nil Local moved Gets by %d; want 1", got.Gets-before.Gets)
	}
	l.Recycle(b)
	if got := Stats(); got.Puts != before.Puts+1 {
		t.Fatalf("a put through a nil Local moved Puts by %d; want 1", got.Puts-before.Puts)
	}
	c := l.Copy([]byte{1, 2, 3})
	if string(c) != "\x01\x02\x03" {
		t.Fatalf("Copy = %v", c)
	}
	l.Recycle(c)
	l.Flush()
	if got := Stats(); got.Outstanding() != before.Outstanding() {
		t.Fatalf("outstanding moved by %d", got.Outstanding()-before.Outstanding())
	}
}

// TestLocalStacksStayBounded drives two Locals that share the classes with
// random gets and puts, each putting back what the other took: no stack ever
// holds more than its class's bound, every Bytes is one get or one miss and
// every Recycle one put or one drop however many buffers refill and spill
// moved, and once both are flushed the shared counters say that nothing is
// outstanding.
func TestLocalStacksStayBounded(t *testing.T) {
	start := Stats()
	var fronts [2]Local
	rng := rand.New(rand.NewSource(24))
	var held [][]byte
	calls := 0
	for op := 0; op < 20000; op++ {
		l := &fronts[rng.Intn(2)]
		// Runs of gets and runs of puts, so the stacks run empty and full.
		if get := (op/400)%2 == 0; get || len(held) == 0 {
			held = append(held, l.Bytes(classSizes[rng.Intn(len(classSizes))]-rng.Intn(100)))
		} else {
			i := rng.Intn(len(held))
			l.Recycle(held[i])
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		calls++
		for i := range l.stacks {
			if l.stacks[i].n > classes[i].keep {
				t.Fatalf("op %d: class %d holds %d buffers; the bound is %d", op, i, l.stacks[i].n, classes[i].keep)
			}
		}
	}
	for _, b := range held {
		fronts[0].Recycle(b)
		calls++
	}
	var counted uint64
	for i := range fronts {
		l := &fronts[i]
		counted += l.gets + l.misses + l.puts + l.drops
		l.Flush()
		for c := range l.stacks {
			if l.stacks[c].n != 0 {
				t.Fatalf("class %d holds %d buffers after Flush", c, l.stacks[c].n)
			}
		}
	}
	if counted != uint64(calls) {
		t.Fatalf("%d calls were counted as %d gets, misses, puts and drops", calls, counted)
	}
	end := Stats()
	if end.Outstanding() != start.Outstanding() {
		t.Fatalf("%d buffers outstanding after both Locals were flushed", end.Outstanding()-start.Outstanding())
	}
	if moved := (end.Gets + end.Misses + end.Puts + end.Drops) - (start.Gets + start.Misses + start.Puts + start.Drops); moved != uint64(calls) {
		t.Fatalf("Flush folded %d operations into the shared counters; want %d", moved, calls)
	}
}

// TestAbandonedLocalStrandsAtMostLocalBytes: a Local that is never flushed
// (the bench/perf layer drivers build simulators they simply drop) keeps at
// most localBytes per class from the shared pool, whatever went through it.
func TestAbandonedLocalStrandsAtMostLocalBytes(t *testing.T) {
	var l Local
	for i, size := range classSizes {
		c := &classes[i]
		before := len(c.free)
		taken := make([][]byte, 10*classes[i].keep)
		for j := range taken {
			taken[j] = l.Bytes(size)
		}
		for _, b := range taken {
			l.Recycle(b)
		}
		if short, held := before-len(c.free), l.stacks[i].n; short*size > localBytes || held*size > localBytes {
			t.Fatalf("class %d: the shared class is %d buffers short and the abandoned Local holds %d; the bound is %d bytes",
				size, short, held, localBytes)
		}
	}
}

func TestLocalSteadyStateNoAllocs(t *testing.T) {
	var l Local
	defer l.Flush()
	l.Recycle(l.Bytes(1460))
	if avg := testing.AllocsPerRun(1000, func() { l.Recycle(l.Bytes(1460)) }); avg != 0 {
		t.Fatalf("a warm Bytes/Recycle pair through a Local allocates %.2f objects; want 0", avg)
	}
}

// TestLocalsShareClassesAcrossGoroutines is for the race detector: two
// goroutines, each with its own Local, push one class through refill and
// spill at once. The buffers they write to must never be the same one.
func TestLocalsShareClassesAcrossGoroutines(t *testing.T) {
	start := Stats().Outstanding()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			var l Local
			defer l.Flush()
			var taken [3 * localSlots][]byte
			for round := 0; round < 200; round++ {
				for i := range taken {
					taken[i] = l.Bytes(1460)
					taken[i][0], taken[i][1459] = mark, mark
				}
				for _, b := range taken {
					if b[0] != mark || b[1459] != mark {
						t.Errorf("goroutine %d: buffer overwritten while held", mark)
					}
					l.Recycle(b)
				}
			}
		}(byte(g + 1))
	}
	wg.Wait()
	if got := Stats().Outstanding(); got != start {
		t.Fatalf("%d buffers outstanding after both goroutines flushed", got-start)
	}
}

// The two numbers ROADMAP quotes for the pool: one get/put pair of an
// MSS-sized buffer on the shared classes (a channel and four atomic counters
// every goroutine writes) and through one Local per goroutine. Run them with
// -cpu 1,2: the second column is what two shards stepping at once pay.
func BenchmarkSharedGetPut(b *testing.B) { benchGetPut(b, func() *Local { return nil }) }
func BenchmarkLocalGetPut(b *testing.B)  { benchGetPut(b, func() *Local { return new(Local) }) }

func benchGetPut(b *testing.B, front func() *Local) {
	b.RunParallel(func(pb *testing.PB) {
		l := front()
		defer l.Flush()
		for pb.Next() {
			l.Recycle(l.Bytes(1460))
		}
	})
}
