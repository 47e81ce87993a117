// Package par runs independent, index-slotted jobs on a bounded pool of
// goroutines — the experiment registry, sweep points, CLI sweep lines. Each
// job writes only its own result slot, so the outcome is identical at any
// worker count.
package par

import (
	"runtime"
	"sync"
)

// For runs job(i) for every i in [0, n) on up to workers goroutines
// (runtime.NumCPU() when workers < 1, never more than n). With one worker
// the jobs run in index order on the caller's goroutine and a panic
// propagates as usual. Otherwise a panicking job must not kill its worker,
// where no caller could recover it: the pool drains and For returns the
// lowest panicking index and its value, or -1 and nil.
func For(n, workers int, job func(i int)) (failed int, panicked any) {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return -1, nil
	}
	panics := make([]any, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() { panics[i] = recover() }()
					job(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			return i, p
		}
	}
	return -1, nil
}

// Do is For for jobs that never expect to panic: a job's panic is re-raised
// on the caller's goroutine once the pool drains.
func Do(n, workers int, job func(i int)) {
	if _, p := For(n, workers, job); p != nil {
		panic(p)
	}
}
