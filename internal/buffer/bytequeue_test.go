package buffer

import (
	"bytes"
	"math/rand"
	"testing"

	"mptcpgo/internal/pool"
)

func poolOutstanding() int64 { return pool.Stats().Outstanding() }

// queueModel is the flat reference a ByteQueue is checked against.
type queueModel struct {
	data []byte
	head uint64
}

func (m *queueModel) tail() uint64 { return m.head + uint64(len(m.data)) }

// peek is the contract of Peek and CopyAt: n bytes at off, or up to the tail,
// or nothing when off is outside the buffered range.
func (m *queueModel) peek(off uint64, n int) []byte {
	if off < m.head || off >= m.tail() {
		return nil
	}
	rest := m.data[off-m.head:]
	if n < len(rest) {
		rest = rest[:n]
	}
	return rest
}

func (m *queueModel) trimTo(off uint64) {
	switch {
	case off <= m.head:
	case off >= m.tail():
		m.data, m.head = m.data[:0], off
	default:
		m.data, m.head = m.data[off-m.head:], off
	}
}

// TestByteQueueMatchesFlatModel drives random Append / Peek / CopyAt /
// TrimTo / Pop / Reset / Release sequences against the flat reference, with
// sizes that land on, just before and across the block boundary, and checks
// that every returned slice has the reference's length and bytes and that
// the queue gives all its pool buffers back once it is empty.
func TestByteQueueMatchesFlatModel(t *testing.T) {
	sizes := []int{0, 1, 100, 1460, 4096, blockSize - 1, blockSize, blockSize + 1,
		2*blockSize - 1460, 3*blockSize + 7, (inlineBlocks + 3) * blockSize}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() int {
			if rng.Intn(4) == 0 {
				return rng.Intn(2 * blockSize)
			}
			return sizes[rng.Intn(len(sizes))]
		}
		// An offset anywhere from just before the head to just past the tail.
		offset := func(m *queueModel) uint64 {
			span := len(m.data) + 5
			off := int64(m.head) + int64(rng.Intn(span)) - 2
			if off < 0 {
				off = 0
			}
			return uint64(off)
		}
		start := poolOutstanding()
		m := &queueModel{head: uint64(rng.Intn(1000))}
		q := NewByteQueue(m.head)
		var next byte
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 35 && len(m.data) < 40*blockSize:
				b := make([]byte, pick())
				for i := range b {
					next++
					b[i] = next
				}
				q.Append(b)
				m.data = append(m.data, b...)
			case op < 55:
				off, n := offset(m), pick()
				got, want := q.Peek(off, n), m.peek(off, n)
				if len(want) == 0 && got != nil {
					t.Fatalf("seed %d step %d: Peek(%d,%d) = %d bytes; want nil", seed, step, off, n, len(got))
				}
				if len(got) != len(want) || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: Peek(%d,%d) returned %d bytes, reference %d (equal=%v)",
						seed, step, off, n, len(got), len(want), bytes.Equal(got, want))
				}
			case op < 70:
				off, p := offset(m), make([]byte, pick())
				n, want := q.CopyAt(p, off), m.peek(off, len(p))
				if n != len(want) || !bytes.Equal(p[:n], want) {
					t.Fatalf("seed %d step %d: CopyAt(%d bytes, %d) = %d, reference %d", seed, step, len(p), off, n, len(want))
				}
			case op < 85:
				off := offset(m)
				q.TrimTo(off)
				m.trimTo(off)
			case op < 96:
				n := pick()
				got, want := q.Pop(n), m.peek(m.head, n)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: Pop(%d) returned %d bytes, reference %d", seed, step, n, len(got), len(want))
				}
				m.trimTo(m.head + uint64(len(want)))
			case op < 98:
				m.data, m.head = m.data[:0], uint64(rng.Intn(1<<20))
				q.Reset(m.head)
			default:
				m.data, m.head = m.data[:0], m.tail()
				q.Release()
			}
			if q.Len() != len(m.data) || q.HeadOffset() != m.head || q.TailOffset() != m.tail() {
				t.Fatalf("seed %d step %d: len/head/tail = %d/%d/%d, reference %d/%d/%d",
					seed, step, q.Len(), q.HeadOffset(), q.TailOffset(), len(m.data), m.head, m.tail())
			}
			if q.Len() == 0 && poolOutstanding() != start {
				t.Fatalf("seed %d step %d: empty queue still holds %d pool buffers", seed, step, poolOutstanding()-start)
			}
		}
		q.Release()
		if got := poolOutstanding(); got != start {
			t.Fatalf("seed %d: %d pool buffers outstanding after Release", seed, got-start)
		}
	}
}

// TestByteQueuePoolBalance pins the block accounting on the paths the stack
// uses: a queue holds exactly the blocks its live bytes span, gives each one
// back when its last byte is consumed, and Release returns the rest.
func TestByteQueuePoolBalance(t *testing.T) {
	start := poolOutstanding()
	held := func() int64 { return poolOutstanding() - start }
	var q ByteQueue
	payload := make([]byte, 1460)

	for q.Len() < 3*blockSize {
		q.Append(payload)
	}
	if want := int64(q.Len()/blockSize + 1); held() != want {
		t.Fatalf("%d bytes queued hold %d blocks; want %d", q.Len(), held(), want)
	}
	// A segment-sized range across the first block boundary is served from
	// the scratch buffer: one more pool buffer, reused by the next straddle.
	if got := q.Peek(blockSize-100, 1460); len(got) != 1460 {
		t.Fatalf("straddling Peek returned %d bytes", len(got))
	}
	withScratch := held()
	q.Peek(2*blockSize-1, 1460)
	if held() != withScratch {
		t.Fatalf("second straddling Peek changed the buffers held from %d to %d", withScratch, held())
	}
	q.TrimTo(blockSize) // exactly the first block
	if held() != withScratch-1 {
		t.Fatalf("trimming one whole block freed %d buffers; want 1", withScratch-held())
	}
	q.TrimTo(q.TailOffset())
	if held() != 0 {
		t.Fatalf("drained queue still holds %d pool buffers", held())
	}

	// The teardown path: bytes still queued, then Release (twice: a second
	// call must not put anything back again).
	q.Append(make([]byte, 5*blockSize+1))
	q.Peek(q.HeadOffset()+blockSize-1, 2)
	tail := q.TailOffset()
	q.Release()
	q.Release()
	if held() != 0 || q.Len() != 0 || q.TailOffset() != tail {
		t.Fatalf("after Release: %d buffers held, len %d, tail %d (want 0, 0, %d)", held(), q.Len(), q.TailOffset(), tail)
	}
}

// TestByteQueueSmallQueueAllocatesNothing pins the inline block table: a
// warmed queue holding up to 64 KiB lives entirely in its own struct and in
// pool blocks.
func TestByteQueueSmallQueueAllocatesNothing(t *testing.T) {
	var q ByteQueue
	payload := make([]byte, 1460)
	sink := make([]byte, 4096)
	cycle := func() {
		q.Append(payload[:100]) // leave the head inside a block
		q.TrimTo(q.HeadOffset() + 100)
		for q.Len()+len(payload) <= 64<<10 {
			q.Append(payload)
		}
		for q.Len() > 0 {
			q.TrimTo(q.HeadOffset() + uint64(q.CopyAt(sink, q.HeadOffset())))
		}
	}
	cycle() // warm the pool's block class
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("64 KiB fill/drain cycle allocates %.2f allocs/op; want 0", avg)
	}
}
