package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// removeEntries deletes every cache entry under dir.
func removeEntries(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no cache entries under %s", dir)
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
}

// remembered counts the finished flights e's memory holds and checks its
// accounting: the bytes it counts are the sizes of the front ends it holds.
func remembered(t *testing.T, e *Engine) int {
	t.Helper()
	n, held := 0, 0
	for _, fe := range e.fronts.m {
		held += fe.size
		for _, f := range fe.flights {
			if f.finished {
				n++
			}
		}
	}
	if held != e.fronts.bytes {
		t.Fatalf("memory holds front ends of %d bytes, counts %d", held, e.fronts.bytes)
	}
	return n
}

// holds reports whether e's memory has a flight of p, whose N is clamped.
func holds(e *Engine, p Point) bool {
	fe := e.fronts.m[p.Front()]
	return fe != nil && fe.flights[p.chip()] != nil
}

// TestEngineRemembersOutcomes: an engine with a cache serves a point it has
// already measured from its memory, not the disk — the records, host timing
// included, are the first run's even with every file gone — while a fresh
// engine over the emptied directory has nothing to read and simulates again.
// An engine without a cache remembers nothing.
func TestEngineRemembersOutcomes(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: cache, Workers: 4}
	first, err := e.Run(smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	removeEntries(t, dir)
	before := e.Stats()
	again, err := e.Run(smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits-before.Hits != len(first) || s.Simulated != before.Simulated || s.Coalesced != before.Coalesced {
		t.Errorf("stats %+v after %+v: want all %d points remembered, none simulated", s, before, len(first))
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("remembered records differ from the measured ones:\n%+v\nvs\n%+v", again, first)
	}

	fresh := &Engine{Cache: cache, Workers: 4}
	if _, err := fresh.Run(smallSpec(), nil); err != nil {
		t.Fatal(err)
	}
	if s := fresh.Stats(); s.Simulated != len(first) || s.Hits != 0 {
		t.Errorf("fresh engine over the emptied cache: %+v, want all %d points simulated", s, len(first))
	}

	bare := &Engine{}
	p := Point{Kernel: 10, N: 8, Cores: 2, Topology: TopoCrossbar, Shortcut: true, Seed: 1}
	for range 2 {
		if rec := bare.Measure(p); rec.Err != "" {
			t.Fatal(rec.Err)
		}
	}
	if s := bare.Stats(); s.Simulated != 2 || s.Hits != 0 || holds(bare, p) {
		t.Errorf("cacheless engine: %+v with p's flight held, want 2 simulations and nothing kept", s)
	}
}

// frontSize is the size a fresh front end of p is charged.
func frontSize(t *testing.T, p Point) int {
	t.Helper()
	fe, _ := new(Engine).fronts.get(mustKernel(t, p.Kernel), p.N, p.Seed)
	return fe.size
}

// TestRememberedOutcomesStayWithinBound shrinks the budget to one front end
// and two outcomes and measures the four points of two front ends twice: the
// memory never holds more than the budget, the outcomes are those of an
// engine that forgot nothing, and a forgotten point comes back from the disk
// instead of the simulator.
func TestRememberedOutcomesStayWithinBound(t *testing.T) {
	spec := func() *Spec {
		return &Spec{Kernels: []int{2, 10}, Sizes: []int{16}, Cores: []int{1, 4}}
	}
	unbounded, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Engine{Cache: unbounded}).Run(spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := spec().Points()
	if err != nil {
		t.Fatal(err)
	}

	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: cache}
	budget := max(frontSize(t, pts[0]), frontSize(t, pts[2])) + 2*outcomeSize
	e.fronts.budget = budget
	measured := make([]Record, len(pts))
	for round := range 2 {
		for i, p := range pts {
			// Measured in grid order, two to a front end, each point is
			// forgotten with its front end before it comes round again.
			if holds(e, p) {
				t.Errorf("round %d: %s still held", round, p.Config())
			}
			rec := e.Measure(p)
			if round == 0 {
				measured[i] = rec
			} else if !reflect.DeepEqual(rec, measured[i]) {
				t.Errorf("%s: read back %+v, measured %+v", p.Config(), rec, measured[i])
			}
			rec.Metrics, want[i].Metrics = rec.Metrics.StripTiming(), want[i].Metrics.StripTiming()
			if !reflect.DeepEqual(rec, want[i]) {
				t.Errorf("%s: bounded engine gave %+v, unbounded %+v", p.Config(), rec, want[i])
			}
			if n := remembered(t, e); n > 2 || e.fronts.bytes > budget {
				t.Fatalf("after %s: %d outcomes in %d bytes held, budget %d", p.Config(), n, e.fronts.bytes, budget)
			}
		}
	}
	if s := e.Stats(); s.Simulated != len(pts) || s.Hits != len(pts) || s.Coalesced != 0 || s.FrontBuilt != 4 {
		t.Errorf("stats %+v: want %d simulated, then %d read back from the disk, each front end built once a round",
			s, len(pts), len(pts))
	}
}

// TestRememberedOutcomeForgottenConcurrently races sixteen measurements of
// one point against a second goroutine whose measurements of two other
// chips of its front end keep forgetting it under a budget of one front end
// and one outcome. Every caller gets the same record, and the one simulation
// is the warm-up's: everything after is remembered, read back or coalesced.
func TestRememberedOutcomeForgottenConcurrently(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Kernel: 10, N: 8, Cores: 2, Topology: TopoCrossbar, Shortcut: true, Seed: 1}
	q, r := p, p
	q.Cores, r.Cores = 1, 3
	// q and r are on the disk only: another engine measured them.
	other := &Engine{Cache: cache}
	wantQ, wantR := other.Measure(q), other.Measure(r)

	e := &Engine{Cache: cache}
	e.fronts.budget = frontSize(t, p) + outcomeSize
	want := e.Measure(p)
	const K, rounds = 16, 4
	for round := range rounds {
		// Forget p, so the round's first caller leads and reads the disk.
		if rec := e.Measure(q); !reflect.DeepEqual(rec, wantQ) {
			t.Fatalf("q: %+v, want %+v", rec, wantQ)
		}
		if holds(e, p) {
			t.Fatalf("round %d: a budget of one outcome kept p next to q", round)
		}
		stop := make(chan struct{})
		disturbed := make(chan struct{})
		go func() {
			defer close(disturbed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := e.Measure(r); !reflect.DeepEqual(rec, wantR) {
					t.Errorf("r: %+v, want %+v", rec, wantR)
				}
				if rec := e.Measure(q); !reflect.DeepEqual(rec, wantQ) {
					t.Errorf("q: %+v, want %+v", rec, wantQ)
				}
			}
		}()
		recs := make([]Record, K)
		var wg sync.WaitGroup
		for i := range K {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i] = e.Measure(p)
			}()
		}
		wg.Wait()
		close(stop)
		<-disturbed
		for i, rec := range recs {
			if !reflect.DeepEqual(rec, want) {
				t.Errorf("round %d, caller %d: %+v, want %+v", round, i, rec, want)
			}
		}
	}
	s := e.Stats()
	if s.Simulated != 1 || s.Failures != 0 || s.Hits+s.Coalesced != s.Points-1 {
		t.Errorf("stats %+v: want the warm-up's one simulation and every other call served", s)
	}
	if n := remembered(t, e); n > 1 {
		t.Errorf("%d outcomes held, budget 1", n)
	}
}

// TestColdPointSimulatedOnceWhileForgetting starts K measurements of one
// cold point a little apart under a budget nothing fits in: the memory
// forgets each front end as soon as it is built and each outcome as soon as
// it is remembered, and later callers build the front end again while the
// first flight is still simulating. The one thing it may not forget is a
// front end with a flight in flight, so every caller finds that flight or,
// after it, the cache: the point is simulated exactly once.
func TestColdPointSimulatedOnceWhileForgetting(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: cache}
	e.fronts.budget = frontOverhead
	p := Point{Kernel: 9, N: 32, Cores: 4, Topology: TopoMesh, Shortcut: true, Seed: 1}
	const K = 16
	recs := make([]Record, K)
	var wg sync.WaitGroup
	for i := range K {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond)
			recs[i] = e.Measure(p)
		}()
	}
	wg.Wait()
	if s := e.Stats(); s.Simulated != 1 || s.Failures != 0 || s.Hits+s.Coalesced != K-1 {
		t.Errorf("stats %+v: want one simulation, every other call coalesced or read back", s)
	}
	for i, rec := range recs {
		if rec.Err != "" || rec != recs[0] {
			t.Errorf("caller %d: %+v, caller 0: %+v", i, rec, recs[0])
		}
	}
	if e.fronts.bytes != 0 || len(e.fronts.m) != 0 {
		t.Errorf("memory retains %d bytes in %d front ends over a budget nothing fits in", e.fronts.bytes, len(e.fronts.m))
	}
}

// TestRememberedPointDerivesNoKey: measuring a point the engine remembers
// costs lookups alone. It derives no key (finishKey's SHA-256 resume,
// formatted chip and hex string all allocate) and allocates nothing else.
func TestRememberedPointDerivesNoKey(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: cache}
	p := Point{Kernel: 10, N: 8, Cores: 2, Topology: TopoCrossbar, Shortcut: true, Seed: 1}
	want := e.Measure(p)
	if want.Err != "" {
		t.Fatal(want.Err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if rec := e.Measure(p); rec != want {
			t.Fatalf("remembered %+v, measured %+v", rec, want)
		}
	}); allocs != 0 {
		t.Errorf("a remembered point's Measure allocates %.1f times, want 0", allocs)
	}
	fe := e.fronts.m[p.Front()]
	if allocs := testing.AllocsPerRun(10, func() { finishKey(fe.prefix, p) }); allocs == 0 {
		t.Fatal("finishKey allocates nothing, so the count above cannot show it is skipped")
	}
	if s := e.Stats(); s.Simulated != 1 || s.Hits != s.Points-1 {
		t.Errorf("stats %+v: want one simulation and every later call remembered", s)
	}
}
