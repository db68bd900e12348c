package machine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/isa"
)

// The concurrent pool tests drive Get/Put from many goroutines — the shape
// the fuzz oracle and the sweep engine's worker pool impose — and are run
// under -race in CI, so the pool's locking discipline is checked on the
// exact paths the sequential tests in warmpool_test.go pin functionally:
// hit/miss accounting, MaxIdle drops, and cross-shape rebinding.

// TestPoolConcurrentGetPut: goroutines hammer one pool with either
// scheduler variant. Every Get must succeed (same shape throughout), come
// back armed as requested, and reproduce the reference run bit-identically;
// the MaxIdle bound and the stats arithmetic must hold at every moment.
func TestPoolConcurrentGetPut(t *testing.T) {
	prog := mustSumFork(t, 40)
	base := DefaultConfig(4)
	fresh, err := New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRunRows(t, fresh)

	const maxIdle = 2
	p := &Pool{MaxIdle: maxIdle}
	var gets, puts atomic.Int64
	variants := []Config{base, base}
	variants[1].Dense = true

	const workers = 8
	iters := 6
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cfg := variants[(w+i)%len(variants)]
				m, err := p.Get("", prog, cfg)
				gets.Add(1)
				if err != nil {
					t.Errorf("worker %d: Get: %v", w, err)
					return
				}
				if m.cfg.Dense != cfg.Dense {
					t.Errorf("worker %d: machine not re-armed: dense=%v", w, m.cfg.Dense)
				}
				got, err := RunRows(m)
				if err != nil {
					t.Errorf("worker %d: Run: %v", w, err)
					return
				}
				sameRun(t, "concurrent pooled run", want, got)
				p.Put("", m)
				puts.Add(1)
			}
		}(w)
	}
	wg.Wait()

	s := p.Stats()
	if s.Hits+s.Misses != gets.Load() {
		t.Errorf("stats %+v: hits+misses != %d gets", s, gets.Load())
	}
	if s.Dropped > puts.Load() {
		t.Errorf("stats %+v: more drops than %d puts", s, puts.Load())
	}
	t.Logf("concurrent phase: %+v", s)
	// Deterministically exercise the MaxIdle drop path: empty the parking
	// slots, then park one machine more than fits.
	held := make([]*Machine, 0, maxIdle+1)
	preDrop := s.Dropped
	for i := 0; i < maxIdle+1; i++ {
		m, err := p.Get("", prog, base)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, m)
	}
	for _, m := range held {
		p.Put("", m)
	}
	if p.Stats().Dropped == preDrop {
		t.Errorf("parking %d machines over MaxIdle=%d dropped nothing", maxIdle+1, maxIdle)
	}
	// At most maxIdle machines survived the run: a fresh burst of Gets can
	// hit at most that many times.
	before := p.Stats().Hits
	for i := 0; i < maxIdle+2; i++ {
		if _, err := p.Get("", prog, base); err != nil {
			t.Fatalf("drain get %d: %v", i, err)
		}
	}
	if hits := p.Stats().Hits - before; hits > maxIdle {
		t.Errorf("%d hits on drain, want <= %d parked machines", hits, maxIdle)
	}
}

// TestPoolConcurrentCollision: racing Gets that present different programs
// and core counts to one pool all succeed — there is no key to collide on.
// Whichever machine a worker is handed, fresh or parked by a run of another
// shape, it comes back bound to the requested core count and reproduces that
// shape's reference run bit-identically. (The name predates the keyless
// pool; it is pinned by the tests-at-floor list.)
func TestPoolConcurrentCollision(t *testing.T) {
	type shape struct {
		prog *isa.Program
		cfg  Config
		want Traced
	}
	shapes := []*shape{
		{prog: mustSumFork(t, 40), cfg: DefaultConfig(4)},
		{prog: mustSumFork(t, 40), cfg: DefaultConfig(8)},
		{prog: mustFibFork(t, 7), cfg: DefaultConfig(2)},
	}
	for _, sh := range shapes {
		fresh, err := New(sh.prog, sh.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh.want = mustRunRows(t, fresh)
	}
	p := NewPool()
	var gets atomic.Int64

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				sh := shapes[(w+i)%len(shapes)]
				m, err := p.Get("", sh.prog, sh.cfg)
				gets.Add(1)
				if err != nil {
					t.Errorf("worker %d: Get: %v", w, err)
					return
				}
				if m.cfg.Cores != sh.cfg.Cores || len(m.cores) != sh.cfg.Cores {
					t.Errorf("worker %d: got %d-core machine (%d cores live), want %d", w, m.cfg.Cores, len(m.cores), sh.cfg.Cores)
				}
				got, err := RunRows(m)
				if err != nil {
					t.Errorf("worker %d: Run: %v", w, err)
					return
				}
				sameRun(t, "racing mixed-shape run", sh.want, got)
				p.Put("", m)
			}
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.Hits+s.Misses != gets.Load() || s.Misses > workers {
		t.Errorf("stats %+v: want hits+misses = %d gets and at most %d machines built", s, gets.Load(), workers)
	}
	t.Logf("racing mixed-shape Gets: %+v", s)
}
