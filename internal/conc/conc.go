// Package conc holds the one worker-pool primitive shared by the oracles'
// batch paths and the experiment sweeps, so the index-ordered-results /
// lowest-index-error contract is implemented exactly once.
package conc

import (
	"sync"
	"sync/atomic"
)

// Sweep runs fn(0) … fn(n-1) across at most workers goroutines and collects
// the results in index order. workers <= 1 runs serially. Every fn must be
// safe to run concurrently with the others when workers > 1. On failure the
// lowest-index error is returned, matching what the serial loop would report
// first, so callers behave identically at any worker count.
func Sweep[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			var err error
			if out[i], err = fn(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stop dispatching new work once any task has failed — the
			// serial path aborts at its first error, so the parallel path
			// should not burn through the remaining expensive calls either.
			// In-flight tasks finish; the lowest-index error is still the
			// one reported.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if out[i], errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
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
