package pool

// localBytes bounds what a Local keeps of one size class: 64 MSS-sized
// payload buffers, 8 queue blocks, 2 of the largest class. The bound is
// load-bearing: stacks left to grow to their shard's high-water mark keep
// buffers the other shards then allocate (corelink: 66 MB an iteration
// against 28), and a simulator nobody flushes strands what its stacks hold.
// It is in bytes because both costs are, while what a deeper stack saves is
// calls, and those are on the small classes: a payload buffer per segment, a
// block per eleven (CHANGES.md, PR 24, has the measurements).
const localBytes = 128 << 10

// localSlots is the size of one stack's array: the bound of the MSS class
// (class.keep), which the classes below it share.
const localSlots = localBytes / 2048

// Local is a single-goroutine front of the shared size classes: per class a
// small LIFO stack, so the per-segment get/put of everything one
// sim.Simulator drives (where it hangs, via sim.Local) takes no lock, touches
// no cache line another shard writes, and returns the buffer recycled last
// rather than, as the shared FIFO does, the one idle longest. An empty stack
// refills from the shared class and a full one spills its oldest half back;
// whoever stops stepping the simulator calls Flush.
//
// A nil *Local is the shared pool. The zero value is an empty front; it is
// not safe for concurrent use.
type Local struct {
	stacks [len(classSizes)]localStack
	// One Bytes is one get or one miss and one Recycle one put or one drop
	// (refill and spill move buffers uncounted); Flush folds them into Stats.
	gets, misses, puts, drops uint64
}

type localStack struct {
	n   int
	buf [localSlots][]byte
}

// refill moves buffers from the shared class to the empty stack until it is
// half full or the class is empty.
func (s *localStack) refill(c *class) {
	for s.n < c.keep/2 {
		select {
		case b := <-c.free:
			s.buf[s.n] = b
			s.n++
		default:
			return
		}
	}
}

// spill moves the k oldest buffers of the stack down to the shared class; a
// full class drops them to the garbage collector, as Recycle does.
func (s *localStack) spill(c *class, k int) {
	for _, b := range s.buf[:k] {
		select {
		case c.free <- b:
		default:
			checkAcquire(b)
		}
	}
	n := copy(s.buf[:], s.buf[k:s.n])
	clear(s.buf[n:s.n])
	s.n = n
}

// Bytes is pool.Bytes served from the front.
func (l *Local) Bytes(n int) []byte {
	if l == nil {
		return Bytes(n)
	}
	i := classIndex(n)
	if i < 0 {
		l.misses++
		return make([]byte, n)
	}
	s, c := &l.stacks[i], &classes[i]
	if s.n == 0 {
		s.refill(c)
		if s.n == 0 {
			l.misses++
			return make([]byte, n, c.size)
		}
	}
	s.n--
	b := s.buf[s.n]
	s.buf[s.n] = nil
	l.gets++
	checkAcquire(b)
	return b[:n]
}

// Copy is pool.Copy served from the front.
func (l *Local) Copy(p []byte) []byte {
	b := l.Bytes(len(p))
	copy(b, p)
	return b
}

// Recycle is pool.Recycle into the front. The buffer need not have come from
// this Local, only from code running on the same goroutine.
func (l *Local) Recycle(b []byte) {
	if l == nil {
		Recycle(b)
		return
	}
	i := classIndex(cap(b))
	if i < 0 || cap(b) != classes[i].size {
		l.drops++
		return
	}
	s, c := &l.stacks[i], &classes[i]
	if s.n == c.keep {
		s.spill(c, c.keep/2)
	}
	b = b[:cap(b)]
	checkRelease(b)
	s.buf[s.n] = b
	s.n++
	l.puts++
}

// Retire flushes l as its simulator closes (sim.Retirer): an empty front
// holds nothing of the closed world and serves the next one as a new one
// would.
func (l *Local) Retire() { l.Flush() }

// Flush empties every stack into the shared classes and folds the local
// counters into the shared ones: Stats then covers l. The Local stays usable.
func (l *Local) Flush() {
	if l == nil {
		return
	}
	for i := range l.stacks {
		l.stacks[i].spill(&classes[i], l.stacks[i].n)
	}
	gets.Add(l.gets)
	misses.Add(l.misses)
	puts.Add(l.puts)
	drops.Add(l.drops)
	l.gets, l.misses, l.puts, l.drops = 0, 0, 0, 0
}
