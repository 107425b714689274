package buffer

import (
	"bytes"
	"math/rand"
	"testing"
)

// holdRange is one chunk's hold in the SendQueue model, with the start
// offsets of the blocks it covered when it was taken.
type holdRange struct {
	off    uint64
	n      int
	blocks []uint64
}

// TestSendQueueMatchesModel drives random Append / Hold / Unhold / TrimTo
// sequences — holds taken at or above the owner's mark, as a sender's chunks
// are, and let go in any order — and after every step checks the contract:
// every held range and everything from the mark to the tail reads back the
// appended bytes, and the queue holds exactly the blocks that are held or
// hold bytes from the mark on, each one a pool buffer. At the end, letting go
// of the rest returns every buffer.
func TestSendQueueMatchesModel(t *testing.T) {
	sizes := []int{1, 100, 1460, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 7, (inlineBlocks + 3) * blockSize}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := poolOutstanding()
		var q SendQueue
		var stream []byte // every byte ever appended; offsets start at 0
		var holds []holdRange
		var mark uint64
		origin := uint64(0) // where the block grid starts: the queue's last reset
		// Blocks are cut on a grid that starts where the queue last emptied
		// up to its mark; a held block keeps the place it was cut at.
		cells := func(off uint64, n int) []uint64 {
			var starts []uint64
			for c := origin + (off-origin)/blockSize*blockSize; c < off+uint64(n); c += blockSize {
				starts = append(starts, c)
			}
			return starts
		}
		check := func(step int, op string) {
			t.Helper()
			tail := uint64(len(stream))
			want := map[uint64]bool{}
			for _, h := range holds {
				for _, c := range h.blocks {
					want[c] = true
				}
			}
			if mark < tail {
				for _, c := range cells(mark, int(tail-mark)) {
					want[c] = true
				}
			} else if !want[origin+(tail-origin)/blockSize*blockSize] {
				origin = tail
			}
			if q.Blocks() != len(want) || poolOutstanding()-start != int64(len(want)) {
				t.Fatalf("seed %d step %d (%s): %d blocks, %d pool buffers out; want %d", seed, step, op, q.Blocks(), poolOutstanding()-start, len(want))
			}
			read := func(off uint64, n int) {
				got := make([]byte, n)
				if c := q.CopyAt(got, off); c != n || !bytes.Equal(got, stream[off:off+uint64(n)]) {
					t.Fatalf("seed %d step %d (%s): %d bytes at %d read back wrong (%d copied)", seed, step, op, n, off, c)
				}
			}
			for _, h := range holds {
				read(h.off, h.n)
			}
			if mark < tail {
				read(mark, int(tail-mark))
			}
		}
		for step := 0; step < 400; step++ {
			tail := uint64(len(stream))
			switch r := rng.Intn(10); {
			case r < 3:
				b := make([]byte, sizes[rng.Intn(len(sizes))])
				rng.Read(b)
				q.Append(b)
				stream = append(stream, b...)
				check(step, "append")
			case r < 6 && mark < tail:
				off := mark + uint64(rng.Int63n(int64(tail-mark)))
				n := 1 + rng.Intn(min(2*blockSize, int(tail-off)))
				q.Hold(off, n)
				holds = append(holds, holdRange{off, n, cells(off, n)})
				check(step, "hold")
			case r < 8 && len(holds) > 0:
				i := rng.Intn(len(holds))
				q.Unhold(holds[i].off, holds[i].n)
				holds = append(holds[:i], holds[i+1:]...)
				check(step, "unhold")
			default:
				if tail > mark {
					mark += uint64(rng.Int63n(int64(tail-mark) + 1))
				}
				q.TrimTo(mark)
				check(step, "trim")
			}
		}
		q.Release()
		for _, h := range holds {
			q.Unhold(h.off, h.n)
		}
		if got := poolOutstanding() - start; got != 0 || q.Blocks() != 0 {
			t.Fatalf("seed %d: %d pool buffers, %d blocks left after Release and the last Unhold", seed, got, q.Blocks())
		}
	}
}

// TestSendQueueStragglerPinsOneBlock is the case the queue exists for: one
// chunk still holds bytes far below the owner's mark while the stream moves
// on. Only the straggler's block stays, and the stream moving past it costs
// no allocation: the block table spans the mark to the tail, not the
// straggler to the tail.
func TestSendQueueStragglerPinsOneBlock(t *testing.T) {
	start := poolOutstanding()
	var q SendQueue
	payload := make([]byte, 1460)
	q.Append(payload)
	q.Hold(100, 1000)
	cycle := func() {
		for i := 0; i < 100; i++ {
			q.Append(payload)
			q.TrimTo(q.TailOffset() - 1460)
		}
	}
	cycle() // warm the pool's block class
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("the stream moving past a straggler allocates %.2f allocs/op; want 0", avg)
	}
	if q.Blocks() != 2 || poolOutstanding()-start != 2 {
		t.Fatalf("a straggler below the mark leaves %d blocks (%d pool buffers); want its own and the tail's", q.Blocks(), poolOutstanding()-start)
	}
	q.Unhold(100, 1000)
	q.Release()
	if q.Blocks() != 0 || poolOutstanding() != start {
		t.Fatalf("%d blocks, %d pool buffers left after Release", q.Blocks(), poolOutstanding()-start)
	}
}
