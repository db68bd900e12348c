package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
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

// remembered counts the finished flights e holds and checks the group's
// count of them agrees.
func remembered(t *testing.T, e *Engine) int {
	t.Helper()
	n := 0
	for _, f := range e.flights.m {
		if f.finished {
			n++
		}
	}
	if n != e.flights.finished {
		t.Fatalf("flight table holds %d finished flights, counts %d", n, e.flights.finished)
	}
	return n
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
	if s := bare.Stats(); s.Simulated != 2 || s.Hits != 0 || len(bare.flights.m) != 0 {
		t.Errorf("cacheless engine: %+v with %d flights held, want 2 simulations and nothing kept", s, len(bare.flights.m))
	}
}

// TestRememberedOutcomesStayWithinBound shrinks the bound to two finished
// flights and measures four points twice: the table never holds more than
// two, the outcomes are those of an engine that forgot nothing, and a
// forgotten point comes back from the disk instead of the simulator.
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
	e.flights.bound = 2
	measured := make([]Record, len(pts))
	for round := range 2 {
		for i, p := range pts {
			// Measured in grid order under a bound of two, each point is
			// forgotten before it comes round again.
			if _, held := e.flights.m[want[i].Key]; held {
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
			if n := remembered(t, e); n > 2 {
				t.Fatalf("after %s: %d finished flights held, bound 2", p.Config(), n)
			}
		}
	}
	if s := e.Stats(); s.Simulated != len(pts) || s.Hits != len(pts) || s.Coalesced != 0 {
		t.Errorf("stats %+v: want %d simulated, then %d read back from the disk", s, len(pts), len(pts))
	}
}

// TestRememberedOutcomeForgottenConcurrently races sixteen measurements of
// one point against a second goroutine whose measurements of two other
// points keep forgetting it under a bound of one. Every caller gets the same
// record, and the one simulation is the warm-up's: everything after is
// remembered, read back or coalesced.
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
	e.flights.bound = 1
	want := e.Measure(p)
	const K, rounds = 16, 4
	for round := range rounds {
		// Forget p, so the round's first caller leads and reads the disk.
		if rec := e.Measure(q); !reflect.DeepEqual(rec, wantQ) {
			t.Fatalf("q: %+v, want %+v", rec, wantQ)
		}
		if _, held := e.flights.m[want.Key]; held {
			t.Fatalf("round %d: a bound of one kept p next to q", round)
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
		t.Errorf("%d finished flights held, bound 1", n)
	}
}
