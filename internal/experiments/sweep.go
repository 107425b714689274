package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SweepWorkers runs fn(i) for every i in [0, n) across up to workers
// goroutines (0 means GOMAXPROCS) and returns the results in index order.
//
// Every experiment sweep point and every fleet shard is self-contained — it
// builds its own World with a seed derived from the point's parameters — so
// results (and therefore the rendered tables) are bit-identical regardless
// of how the points are scheduled across workers. Errors are reported from
// the lowest-indexed failing point so output stays deterministic too.
func SweepWorkers[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepGrid runs a rows × cols grid of sweep points of experiment id in
// parallel and returns the results indexed [row][col]. Point (r, c) is sweep
// index r*cols+c, and fn gets that point's observer file name (pointName).
func sweepGrid[T any](id string, rows, cols int, fn func(r, c int, name string) (T, error)) ([][]T, error) {
	flat, err := SweepWorkers(rows*cols, 0, func(i int) (T, error) {
		return fn(i/cols, i%cols, pointName(id, i))
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, rows)
	for r := 0; r < rows; r++ {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out, nil
}
