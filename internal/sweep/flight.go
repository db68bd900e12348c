package sweep

import "sync"

// flight is one measurement of a content key. The leader fills in the
// outcome and closes done; followers block on done and copy it. A finished
// flight the group remembers is the engine's memory of that key's outcome.
type flight struct {
	done     chan struct{}
	metrics  Metrics
	errMsg   string
	finished bool // remembered after its leader finished; guarded by flightGroup.mu
}

// flightBound is how many finished flights a group remembers at most: about
// 25 MB of outcomes, channels, keys and map slots.
const flightBound = 1 << 16

// flightGroup coalesces measurements of the same cache key (singleflight):
// the first caller to join a key becomes the leader and measures; callers
// that join while the leader is in flight wait and share the leader's
// outcome. Together with the persistent cache this gives the job server its
// exactly-once property — N identical simultaneous submissions simulate each
// point exactly once.
//
// A successful flight the leader asks to remember stays in the table after
// it finished, so a later caller of that key joins it as a remembered outcome
// instead of reading the cache again: the group deduplicates repeats over
// time within one engine as well as concurrent duplicates. Failures are
// removed, so a later caller retries them.
type flightGroup struct {
	mu       sync.Mutex
	m        map[string]*flight
	finished int // remembered flights in m
	bound    int // 0 means flightBound; tests shrink it
}

// join returns the flight for key, whether the caller is its leader, and
// whether the flight had already finished (a remembered outcome). A leader
// must eventually call finish exactly once.
func (g *flightGroup) join(key string) (f *flight, leader, remembered bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false, f.finished
	}
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true, false
}

// finish records the leader's outcome and wakes the followers. A successful
// outcome is remembered when remember is set; anything else retires the key.
// Going past the bound forgets every remembered flight at once, never one in
// flight: a forgotten key's next caller leads again and reads the cache.
func (g *flightGroup) finish(key string, f *flight, m Metrics, errMsg string, remember bool) {
	f.metrics, f.errMsg = m, errMsg
	bound := g.bound
	if bound == 0 {
		bound = flightBound
	}
	g.mu.Lock()
	if remember && errMsg == "" {
		if g.finished >= bound {
			for k, old := range g.m {
				if old.finished {
					delete(g.m, k)
				}
			}
			g.finished = 0
		}
		f.finished = true
		g.finished++
	} else {
		delete(g.m, key)
	}
	g.mu.Unlock()
	close(f.done)
}
