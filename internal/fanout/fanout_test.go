package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachVisitsEveryIndexOnceWithinBound: every index is visited exactly
// once and no more than the resolved worker count of bodies ever run at the
// same time, for the default (0 → GOMAXPROCS), serial, over-provisioned
// (workers > n) and empty cases.
func TestEachVisitsEveryIndexOnceWithinBound(t *testing.T) {
	cases := []struct{ n, workers int }{
		{n: 100, workers: 0},
		{n: 100, workers: 1},
		{n: 100, workers: 4},
		{n: 3, workers: 16},
		{n: 0, workers: 4},
		{n: 0, workers: 0},
	}
	for _, c := range cases {
		bound := c.workers
		if bound <= 0 {
			bound = runtime.GOMAXPROCS(0)
		}
		if bound > c.n {
			bound = c.n
		}
		visits := make([]atomic.Int32, c.n)
		var running, high atomic.Int32
		Each(c.n, c.workers, func(i int) {
			now := running.Add(1)
			for {
				h := high.Load()
				if now <= h || high.CompareAndSwap(h, now) {
					break
				}
			}
			visits[i].Add(1)
			runtime.Gosched() // give the other workers a chance to overlap
			running.Add(-1)
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Errorf("n=%d workers=%d: index %d visited %d times", c.n, c.workers, i, v)
			}
		}
		if h := int(high.Load()); h > bound {
			t.Errorf("n=%d workers=%d: %d bodies ran at once, bound is %d", c.n, c.workers, h, bound)
		}
	}
}

// TestEachUsesItsWorkers: with enough items the bound is reached, not just
// respected — every worker is parked inside body at the same moment.
func TestEachUsesItsWorkers(t *testing.T) {
	const workers = 4
	var arrived atomic.Int32
	release := make(chan struct{})
	Each(workers, workers, func(int) {
		if arrived.Add(1) == workers {
			close(release)
		}
		<-release // deadlocks (test timeout) unless all four run concurrently
	})
}
