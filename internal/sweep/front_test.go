package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/minic"
	"repro/internal/pbbs"
)

// keyFixture reads testdata/keys-sweep-v2.jsonl: 704 points (11 kernels × n
// {MinN-clamped 4, 64} × seeds {1, 7} × cores {1, 16} × {crossbar, mesh} ×
// shortcut × cap {0, 2}) with the key the unsplit cacheKey of PR 17 gave
// each. A sweep-v2 key that differs from it orphans every cache directory
// and JSONL written so far.
func keyFixture(t *testing.T) (pts []Point, keys []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "keys-sweep-v2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var line struct {
			Point
			Key string `json:"key"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, line.Point)
		keys = append(keys, line.Key)
	}
	if len(pts) != 704 {
		t.Fatalf("fixture has %d points, want 704", len(pts))
	}
	return pts, keys
}

// TestKeysDoNotMove measures every fixture point over a cache that holds a
// placeholder entry under each fixture key: a key that moved would miss and
// simulate. It does so with the memo cold, warm and forgetting everything it
// builds, and pins what each regime costs in front ends — the warm one none,
// which is the point of the memo: neither Kernel.Build, Kernel.Gen nor the
// hashing of program and inputs runs for a cached point.
func TestKeysDoNotMove(t *testing.T) {
	pts, keys := keyFixture(t)
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if err := cache.Put(key, &Metrics{Instructions: 1, Cycles: 1}); err != nil {
			t.Fatal(err)
		}
	}
	const fronts = 11 * 2 * 2 // kernel × n × seed
	e := &Engine{Cache: cache}
	pass := func(name string, wantBuilt int) {
		before := e.Stats()
		for i, p := range pts {
			if rec := e.Measure(p); rec.Key != keys[i] || rec.Err != "" {
				t.Fatalf("%s memo: %+v: key %q (err %q), fixture %q", name, p, rec.Key, rec.Err, keys[i])
			}
		}
		s := e.Stats()
		if built := s.FrontBuilt - before.FrontBuilt; built != wantBuilt || s.FrontReused-before.FrontReused != len(pts)-built {
			t.Errorf("%s memo: stats %+v after %+v: want %d front ends built for %d points", name, s, before, wantBuilt, len(pts))
		}
		if s.Hits-before.Hits != len(pts) || s.Simulated != 0 {
			t.Errorf("%s memo: stats %+v: want every point served from the cache", name, s)
		}
	}
	pass("cold", fronts)
	pass("warm", 0)
	// A budget nothing fits in: the next front end built (one the fixture
	// does not have) pushes the memo over it and everything is forgotten,
	// then every entry is forgotten as soon as it is built. The fixture lists
	// a front end's 16 chips consecutively, so taking every 16th point asks
	// for each front end once.
	e.fronts.budget = frontOverhead
	e.fronts.get(mustKernel(t, 10), 8, 3)
	all, allKeys := pts, keys
	pts, keys = nil, nil
	for i := 0; i < len(all); i += 16 {
		pts, keys = append(pts, all[i]), append(keys, allKeys[i])
	}
	pass("forgetful", fronts)
	pass("still forgetful", fronts)
	if e.fronts.bytes != 0 || len(e.fronts.m) != 0 {
		t.Errorf("memo retains %d bytes in %d entries over a budget nothing fits in", e.fronts.bytes, len(e.fronts.m))
	}
}

// TestParentCacheDirectoryStillHits reads a cache directory and the JSONL PR
// 17's binary wrote for three points: the engine must find all three and
// re-emit the JSONL byte for byte.
func TestParentCacheDirectoryStillHits(t *testing.T) {
	cache, err := NewCache(filepath.Join("testdata", "cache-sweep-v2"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cache-sweep-v2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: cache}
	var got bytes.Buffer
	jw := NewJSONLWriter(&got)
	if _, err := e.Run(&Spec{Kernels: []int{10}, Sizes: []int{8}, Cores: []int{1, 2, 4}}, func(r Record) {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 3 || s.Simulated != 0 {
		t.Errorf("stats %+v, want 3 hits and nothing simulated", s)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("JSONL over the parent's cache differs:\n%s\nvs\n%s", got.Bytes(), want)
	}
}

// TestFrontEndBuiltOnceConcurrently: eight goroutines each measure every
// configuration of one kernel on a fresh engine. The kernel is compiled and
// its inputs hashed exactly once, whoever gets there first, and every record
// carries the key the unsplit derivation gives.
func TestFrontEndBuiltOnceConcurrently(t *testing.T) {
	spec := &Spec{
		Kernels: []int{10}, Sizes: []int{8}, Cores: []int{1, 2, 4},
		Topologies: []string{TopoCrossbar, TopoRing}, Shortcut: []bool{true, false}, MaxSections: []int{0, 2},
	}
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	k := mustKernel(t, 10)
	prog, err := k.Build(8, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(8, 1)

	e := &Engine{}
	const G = 8
	recs := make([][]Record, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range pts {
				recs[g] = append(recs[g], e.Measure(p))
			}
		}()
	}
	wg.Wait()
	if s := e.Stats(); s.FrontBuilt != 1 || s.FrontReused != G*len(pts)-1 || s.Failures != 0 {
		t.Errorf("stats %+v: want 1 front end built and %d reused", s, G*len(pts)-1)
	}
	for g := range recs {
		for i, rec := range recs[g] {
			if want := cacheKey(prog, in, pts[i]); rec.Key != want {
				t.Errorf("goroutine %d, %+v: key %q, direct derivation %q", g, pts[i], rec.Key, want)
			}
			if rec.Point != pts[i] || rec.Metrics.StripTiming() != recs[0][i].Metrics.StripTiming() {
				t.Errorf("goroutine %d, %+v: record differs from goroutine 0's", g, pts[i])
			}
		}
	}
}

// TestFrontMemoStaysWithinBudget shrinks the budget until it holds about two
// front ends and drives a grid of four through it: the retained bytes never
// exceed the budget, the accounting matches the entries actually held, and
// the outcomes are those of an engine that never forgot anything.
func TestFrontMemoStaysWithinBudget(t *testing.T) {
	spec := func() *Spec {
		return &Spec{Kernels: []int{2, 10}, Sizes: []int{8, 16}, Cores: []int{1, 4}}
	}
	want, err := (&Engine{}).Run(spec(), nil)
	if err != nil {
		t.Fatal(err)
	}

	e := &Engine{}
	probe, _ := e.fronts.get(mustKernel(t, 2), 16, 1)
	budget := 2*probe.size + probe.size/2
	e = &Engine{}
	e.fronts.budget = budget
	pts, err := spec().Points()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		rec := e.Measure(p)
		rec.Metrics, want[i].Metrics = rec.Metrics.StripTiming(), want[i].Metrics.StripTiming()
		if !reflect.DeepEqual(rec, want[i]) {
			t.Errorf("%+v: bounded memo gave %+v, unbounded %+v", p, rec, want[i])
		}
		held := 0
		for _, fe := range e.fronts.m {
			held += fe.size
		}
		if e.fronts.bytes != held || held > budget {
			t.Fatalf("after %+v: memo accounts %d bytes, holds %d, budget %d", p, e.fronts.bytes, held, budget)
		}
	}
	// A front end's two chips are consecutive, so forgetting costs no
	// rebuild here; holding all four would mean nothing was forgotten.
	if s := e.Stats(); s.FrontBuilt != 4 || len(e.fronts.m) == 4 {
		t.Errorf("stats %+v, %d entries held: the budget was meant to force eviction between the 4 front ends", s, len(e.fronts.m))
	}
}

func mustKernel(t *testing.T, id int) *pbbs.Kernel {
	t.Helper()
	k, err := pbbs.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestReferenceDerivedOncePerFrontEnd: every chip of a front end runs one
// program over one set of inputs, so the reference checksum is derived once,
// by the first point that simulates, however many of its points run at once;
// a point served from the cache derives none; and a point that disagrees
// with it still fails with the checksum text.
func TestReferenceDerivedOncePerFrontEnd(t *testing.T) {
	k := mustKernel(t, 2)
	ref := k.Ref
	t.Cleanup(func() { k.Ref = ref })
	var refs atomic.Int32
	k.Ref = func(n int, in pbbs.Inputs) (uint64, error) {
		refs.Add(1)
		return ref(n, in)
	}
	spec := &Spec{Kernels: []int{2}, Sizes: []int{8}, Cores: []int{1, 2, 4}, Topologies: []string{TopoCrossbar, TopoRing}}
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	measureAll := func(e *Engine) {
		var wg sync.WaitGroup
		for _, p := range pts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := e.Measure(p); rec.Err != "" {
					t.Errorf("%+v: %s", p, rec.Err)
				}
			}()
		}
		wg.Wait()
	}
	measureAll(&Engine{Cache: cache})
	if got := refs.Load(); got != 1 {
		t.Errorf("%d points of one front end derived the reference %d times, want once", len(pts), got)
	}
	refs.Store(0)
	measureAll(&Engine{Cache: cache})
	if got := refs.Load(); got != 0 {
		t.Errorf("a warm re-run derived the reference %d times, want none", got)
	}

	k.Ref = func(n int, in pbbs.Inputs) (uint64, error) {
		want, err := ref(n, in)
		return want + 1, err
	}
	rec := (&Engine{}).Measure(pts[0])
	if want, _ := ref(8, k.Gen(8, pts[0].Seed)); rec.Err != fmt.Sprintf("checksum %d, reference %d", want, want+1) {
		t.Errorf("doctored reference: error %q", rec.Err)
	}
}
