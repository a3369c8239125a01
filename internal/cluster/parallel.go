package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelChunk is the number of points one scheduler grab covers: small
// enough that the atomic cursor balances uneven progress and that a
// cancellation is observed promptly, large enough that the atomic add is
// amortized over thousands of float operations.
const parallelChunk = 512

// EnumerateParallel evaluates the same configuration space as Enumerate,
// fanned out over a pool of worker goroutines. The result order is
// identical to Enumerate's (workers write by index, not by completion
// order), and because both paths evaluate points with the same kernel
// arithmetic the two are bit-identical and interchangeable.
//
// Work is scheduled dynamically: workers claim fixed-size chunks off a
// shared atomic cursor, so a worker stalled by the scheduler or an
// asymmetric machine cannot strand a static block. The first error stops
// the remaining workers at their next chunk boundary instead of letting
// them run the rest of the space to completion (with the kernel table
// built up front, per-point evaluation is infallible, so in practice
// errors surface before any worker starts).
//
// workers <= 0 selects GOMAXPROCS.
func (s Space) EnumerateParallel(maxARM, maxAMD int, w float64, workers int) ([]Point, error) {
	v, err := s.enumView(maxARM, maxAMD, w, nil, nil)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]Point, v.size)
	err = parallelFor(len(out), workers, parallelChunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = v.pointAt(uint64(i), w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parallelFor runs body over [0, n) in chunks claimed from a shared
// atomic cursor by a pool of workers. The first error cancels the run:
// workers stop claiming chunks and parallelFor returns that error.
func parallelFor(n, workers, chunk int, body func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		cursor   atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				hi := int(cursor.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				if err := body(lo, hi); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
