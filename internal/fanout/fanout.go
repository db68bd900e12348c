// Package fanout is the repo's one bounded parallel-for. Every "measure N
// independent things on W goroutines" loop — sweep grids, leased fabric
// batches, the watchdog's local drain, the Fig. 7 batch — runs through Each,
// so the worker-count default and the goroutine bound are decided here only.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls body(i) once for every i in [0, n), on at most workers
// goroutines at a time, and returns when every call has. workers <= 0 means
// GOMAXPROCS; never more goroutines than n are started. Indices are claimed
// in ascending order, so a consumer waiting on the lowest unfinished index
// waits on work that has already started.
func Each(n, workers int, body func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}
