package sweep

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// smallSpec is a 2-kernel × 2-core × 2-topology grid cheap enough for tests.
func smallSpec() *Spec {
	return &Spec{
		Kernels:    []int{2, 10},
		Sizes:      []int{16},
		Cores:      []int{1, 4},
		Topologies: []string{TopoCrossbar, TopoRing},
		Seed:       1,
	}
}

func TestSpecDefaults(t *testing.T) {
	s := &Spec{}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.Kernels) != len(pbbs.Kernels()) {
		t.Errorf("default kernels = %d, want all %d", len(s.Kernels), len(pbbs.Kernels()))
	}
	if len(s.Sizes) == 0 || len(s.Cores) == 0 || len(s.Topologies) == 0 ||
		len(s.Shortcut) == 0 || len(s.MaxSections) == 0 || s.Seed == 0 {
		t.Errorf("Normalize left an axis empty: %+v", s)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []*Spec{
		{Kernels: []int{99}},
		{Sizes: []int{0}},
		{Cores: []int{-1}},
		{Topologies: []string{"torus"}},
		{MaxSections: []int{-2}},
	}
	for _, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted a bad axis", s)
		}
	}
}

// mapPoints is the reference enumeration Points must reproduce: the nested
// product of the raw axes in grid order, each size clamped per kernel, with a
// set of the points seen so far dropping every repeat.
func mapPoints(t *testing.T, s Spec) []Point {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	var pts []Point
	seen := make(map[Point]bool)
	for _, id := range s.Kernels {
		k, err := pbbs.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range s.Sizes {
			for _, cores := range s.Cores {
				for _, topo := range s.Topologies {
					for _, sc := range s.Shortcut {
						for _, secCap := range s.MaxSections {
							p := Point{Kernel: k.ID, Name: k.Name, N: k.ClampN(n), Cores: cores,
								Topology: topo, Shortcut: sc, MaxSections: secCap, Seed: s.Seed}
							if !seen[p] {
								seen[p] = true
								pts = append(pts, p)
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// checkPoints compares s.Points with mapPoints, content and order, and checks
// that Points changed none of the caller's axes beyond Normalize's defaults.
func checkPoints(t *testing.T, s *Spec) {
	t.Helper()
	normal := Spec{
		Kernels: slices.Clone(s.Kernels), Sizes: slices.Clone(s.Sizes), Cores: slices.Clone(s.Cores),
		Topologies: slices.Clone(s.Topologies), Shortcut: slices.Clone(s.Shortcut),
		MaxSections: slices.Clone(s.MaxSections), Seed: s.Seed,
	}
	want := mapPoints(t, normal)
	if err := normal.Normalize(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Points(%+v) =\n%+v\nwant (the map-deduplicated product)\n%+v", normal, got, want)
	}
	if !reflect.DeepEqual(*s, normal) {
		t.Errorf("Points changed the caller's axes to %+v from %+v", *s, normal)
	}
}

// withMinN raises kernel id's minimum dataset size for the rest of the test.
// Every registered kernel's minimum is 2, so this is what makes a size clamp
// onto a point for one kernel and not for another.
func withMinN(t *testing.T, id, minN int) {
	k, err := pbbs.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	old := k.MinN
	k.MinN = minN
	t.Cleanup(func() { k.MinN = old })
}

func TestPointsDedupClampedSizes(t *testing.T) {
	k, err := pbbs.ByID(2)
	if err != nil {
		t.Fatal(err)
	}
	// Both sizes clamp onto the kernel's minimum: one point, not two.
	s := &Spec{Kernels: []int{2}, Sizes: []int{1, 2}, Cores: []int{1}}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].N != k.MinN {
		t.Errorf("points = %+v, want one point at the clamped size %d", pts, k.MinN)
	}

	withMinN(t, 10, 8)
	for _, s := range []*Spec{
		// Duplicates on every axis.
		{Kernels: []int{10, 2, 10}, Sizes: []int{16, 8, 16, 8}, Cores: []int{4, 1, 4},
			Topologies: []string{TopoRing, TopoCrossbar, TopoRing}, Shortcut: []bool{true, false, true, false},
			MaxSections: []int{0, 2, 0, 2}, Seed: 3},
		// Sizes below kernel 10's minimum of 8 collapse for it, not for 2:
		// 3, 1 and 5 all run at 8 on kernel 10 (at the place of 3), while
		// kernel 2 runs 3 and 5 and clamps only 1 (onto its minimum of 2).
		{Kernels: []int{2, 10}, Sizes: []int{3, 12, 1, 5, 8, 2}},
		{Kernels: []int{10, 2}, Sizes: []int{9, 8, 7, 8, 1}},
		// Defaulted axes, alone and beside duplicated ones.
		{},
		{Kernels: []int{2}},
		{Sizes: []int{1, 1}, Cores: []int{2, 2}},
		// Axes past distinct's scan, with repeats early and late.
		{Kernels: []int{2}, Cores: append(axisOf(100), 7, 100, 1)},
		{Kernels: []int{2}, Cores: append([]int{5, 5, 5}, axisOf(90)...)},
		{Kernels: []int{10, 2}, Sizes: append(axisOf(70), axisOf(70)...)},
	} {
		checkPoints(t, s)
	}
}

// axisOf is the axis 1..n.
func axisOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func TestPointsDeterministicOrder(t *testing.T) {
	a, err := smallSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two enumerations of the same spec differ")
	}
	if len(a) != 8 {
		t.Errorf("grid size = %d, want 2 kernels × 2 cores × 2 topologies = 8", len(a))
	}
	spec := smallSpec()
	if n := testing.AllocsPerRun(10, func() { _, _ = spec.Points() }); n != 1 {
		t.Errorf("Points makes %.0f allocations, want 1 (the result)", n)
	}

	// Seeded random specs over small value pools, so that repeats and
	// clamps are common and some axes are left to their defaults: each must
	// enumerate the map-deduplicated product in its order.
	withMinN(t, 10, 6)
	rng := rand.New(rand.NewSource(7))
	pick := func(pool []int) []int {
		axis := make([]int, rng.Intn(5))
		for i := range axis {
			axis[i] = pool[rng.Intn(len(pool))]
		}
		return axis
	}
	for range 300 {
		s := &Spec{
			Kernels: pick([]int{2, 10, 11}), Sizes: pick([]int{1, 2, 5, 6, 7, 16}),
			Cores: pick([]int{1, 2, 4}), MaxSections: pick([]int{0, 1, 3}),
			Seed: uint64(rng.Intn(3)),
		}
		for range rng.Intn(4) {
			s.Topologies = append(s.Topologies, Topologies[rng.Intn(len(Topologies))])
		}
		for range rng.Intn(3) {
			s.Shortcut = append(s.Shortcut, rng.Intn(2) == 0)
		}
		checkPoints(t, s)
	}
}

func TestMakeNet(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 6, 7, 16} {
		for _, topo := range Topologies {
			n, err := MakeNet(topo, cores)
			if err != nil {
				t.Fatalf("%s/%d: %v", topo, cores, err)
			}
			if n.Cores() != cores {
				t.Errorf("%s over %d cores reports %d endpoints", topo, cores, n.Cores())
			}
		}
	}
	// Meshes take the most square w×h factorisation of the core count.
	for cores, want := range map[int]string{6: "mesh(2x3,hop=1)", 7: "mesh(1x7,hop=1)", 16: "mesh(4x4,hop=1)"} {
		if n, err := MakeNet(TopoMesh, cores); err != nil || n.Name() != want {
			t.Errorf("mesh over %d cores = %v, %v; want %s", cores, n, err, want)
		}
	}
	if _, err := MakeNet("torus", 4); err == nil || err.Error() != `sweep: unknown topology "torus" (want crossbar|ring|mesh)` {
		t.Errorf("MakeNet(torus) error = %v", err)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	k, err := pbbs.ByID(2)
	if err != nil {
		t.Fatal(err)
	}
	base := Point{Kernel: 2, N: 16, Cores: 4, Topology: TopoCrossbar, Shortcut: true, Seed: 1}
	prog, err := k.Build(16, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(16, 1)
	ref := cacheKey(prog, in, base)

	perturbed := []Point{
		{Kernel: 2, N: 16, Cores: 8, Topology: TopoCrossbar, Shortcut: true, Seed: 1},
		{Kernel: 2, N: 16, Cores: 4, Topology: TopoRing, Shortcut: true, Seed: 1},
		{Kernel: 2, N: 16, Cores: 4, Topology: TopoCrossbar, Shortcut: false, Seed: 1},
		{Kernel: 2, N: 16, Cores: 4, Topology: TopoCrossbar, Shortcut: true, MaxSections: 2, Seed: 1},
	}
	for _, p := range perturbed {
		if cacheKey(prog, in, p) == ref {
			t.Errorf("config change %+v did not change the cache key", p)
		}
	}
	if other, err := k.Build(24, minic.ModeFork); err != nil {
		t.Fatal(err)
	} else if cacheKey(other, in, base) == ref {
		t.Error("program change did not change the cache key")
	}
	if cacheKey(prog, k.Gen(16, 7), base) == ref {
		t.Error("input change did not change the cache key")
	}
	if cacheKey(prog, in, base) != ref {
		t.Error("identical point hashed differently")
	}
}

// TestCacheKeyFraming pins the injectivity of the input encoding: near-miss
// input maps must hash apart. The v1 encoding wrote arrays as bare
// variable-width words with no length frame, so the word stream carried no
// record of how the values were grouped; v2 length-frames every array (and
// the symbol set) with fixed-width words.
func TestCacheKeyFraming(t *testing.T) {
	k, err := pbbs.ByID(2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Build(16, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Kernel: 2, N: 16, Cores: 4, Topology: TopoCrossbar, Shortcut: true, Seed: 1}
	cases := []struct {
		name string
		in   backend.Inputs
	}{
		{"no inputs", backend.Inputs{}},
		{"empty array", backend.Inputs{"A": {}}},
		{"one zero word", backend.Inputs{"A": {0}}},
		{"split word", backend.Inputs{"A": {0x12}}},
		{"two words", backend.Inputs{"A": {0x1, 0x2}}},
		{"word pair swapped", backend.Inputs{"A": {0x2, 0x1}}},
		{"second empty symbol", backend.Inputs{"A": {0x12}, "B": {}}},
		{"first empty symbol", backend.Inputs{"A": {}, "B": {0x12}}},
		{"moved word", backend.Inputs{"A": {}, "B": {0x12, 0x12}}},
		{"value in other symbol", backend.Inputs{"B": {0x12}}},
	}
	seen := make(map[string]string)
	for _, c := range cases {
		key := cacheKey(prog, c.in, p)
		if prev, dup := seen[key]; dup {
			t.Errorf("inputs %q and %q hash to the same key", prev, c.name)
		}
		seen[key] = c.name
		if again := cacheKey(prog, c.in, p); again != key {
			t.Errorf("inputs %q: key not stable", c.name)
		}
	}
}

func TestEngineCachesAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := &Engine{Cache: cache, Workers: 4}
	recs1, err := e1.Run(smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e1.Stats()
	if s1.Hits != 0 || s1.Simulated != len(recs1) || s1.Failures != 0 {
		t.Fatalf("first run stats = %+v, want all %d points simulated", s1, len(recs1))
	}

	// A fresh engine over the same directory models a separate process: every
	// point must come from the cache, with zero machine re-simulations.
	cache2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := &Engine{Cache: cache2, Workers: 4}
	recs2, err := e2.Run(smallSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e2.Stats()
	if s2.Simulated != 0 || s2.Hits != len(recs2) {
		t.Fatalf("second run stats = %+v, want all %d points cached", s2, len(recs2))
	}
	if !reflect.DeepEqual(recs1, recs2) {
		t.Error("cached records differ from simulated records")
	}
}

// TestPooledRunsMatchFresh pins the warm-pool contract at the sweep level:
// an engine with a machine pool produces JSONL byte-identical to a fresh
// engine's (after zeroing the host wall-clock fields, the one
// non-deterministic part of a record), across repeated runs where the pool
// is actually serving warmed machines.
func TestPooledRunsMatchFresh(t *testing.T) {
	spec := func() *Spec {
		return &Spec{Kernels: []int{2, 10}, Sizes: []int{16}, Cores: []int{1, 4}, Seed: 1}
	}
	jsonl := func(recs []Record) string {
		var buf bytes.Buffer
		jw := NewJSONLWriter(&buf)
		for _, r := range recs {
			r.Metrics = r.Metrics.StripTiming()
			if err := jw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}

	fresh := &Engine{Workers: 2}
	want, err := fresh.Run(spec(), nil)
	if err != nil {
		t.Fatal(err)
	}

	pooled := &Engine{Workers: 2, Pool: machine.NewPool()}
	var got []Record
	for round := 0; round < 2; round++ {
		if got, err = pooled.Run(spec(), nil); err != nil {
			t.Fatal(err)
		}
		if a, b := jsonl(want), jsonl(got); a != b {
			t.Fatalf("round %d: pooled JSONL differs from fresh:\n%s\nvs\n%s", round, b, a)
		}
	}
	// The second round must have run on warmed machines, or the comparison
	// proved nothing about the pool.
	if s := pooled.Pool.Stats(); s.Hits == 0 {
		t.Fatalf("pool stats %+v: second sweep never hit the pool", s)
	}
	// ... all of them bound to the two programs the engine compiled once.
	if s := pooled.Stats(); s.FrontBuilt != 2 || s.FrontReused != 2*len(got)-2 {
		t.Errorf("stats %+v: want one front end per kernel shared by every run", s)
	}
}

func TestEngineWithoutCache(t *testing.T) {
	e := &Engine{}
	recs, err := e.Run(&Spec{Kernels: []int{10}, Sizes: []int{8}, Cores: []int{2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != "" || recs[0].Cycles == 0 {
		t.Errorf("cacheless run produced %+v", recs)
	}
	if s := e.Stats(); s.Hits != 0 || s.Simulated != 1 {
		t.Errorf("cacheless stats = %+v", s)
	}
}

func TestMeasureClampsPoint(t *testing.T) {
	k, err := pbbs.ByID(2)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{}
	rec := e.Measure(Point{Kernel: 2, N: 1, Cores: 1, Topology: TopoCrossbar, Shortcut: true, Seed: 1})
	if rec.Err != "" {
		t.Fatalf("Measure failed: %s", rec.Err)
	}
	if rec.N != k.MinN || rec.Name != k.Name {
		t.Errorf("Measure point = %+v, want clamped n=%d name=%q", rec.Point, k.MinN, k.Name)
	}
	// The clamp is surfaced, not silent: the record keeps what was asked for.
	if rec.RequestedN != 1 {
		t.Errorf("RequestedN = %d, want the pre-clamp 1", rec.RequestedN)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"requestedN":1`) {
		t.Errorf("clamped record JSONL missing requestedN: %s", b)
	}

	// An in-range request carries no RequestedN — the field is omitted from
	// the JSONL so unclamped records stay byte-identical to the old format.
	rec = e.Measure(Point{Kernel: 2, N: k.MinN, Cores: 1, Topology: TopoCrossbar, Shortcut: true, Seed: 1})
	if rec.Err != "" {
		t.Fatalf("Measure failed: %s", rec.Err)
	}
	if rec.RequestedN != 0 {
		t.Errorf("unclamped RequestedN = %d, want 0", rec.RequestedN)
	}
	if b, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "requestedN") {
		t.Errorf("unclamped record JSONL leaks requestedN: %s", b)
	}
}

// TestMeasureCoalescesConcurrentDuplicates pins the singleflight guarantee:
// K identical concurrent measurements simulate exactly once. The cache
// covers goroutines that start after the leader finished, the flight group
// covers the ones in flight with it, so the "exactly one simulation" holds
// under every interleaving.
func TestMeasureCoalescesConcurrentDuplicates(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: cache}
	p := Point{Kernel: 10, N: 8, Cores: 2, Topology: TopoCrossbar, Shortcut: true, Seed: 1}
	const K = 8
	recs := make([]Record, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = e.Measure(p)
		}()
	}
	wg.Wait()
	s := e.Stats()
	if s.Simulated != 1 {
		t.Errorf("stats = %+v, want exactly 1 simulation for %d identical submissions", s, K)
	}
	if s.Hits+s.Coalesced != K-1 || s.Failures != 0 {
		t.Errorf("stats = %+v, want the other %d served by cache or coalescing", s, K-1)
	}
	for i := 1; i < K; i++ {
		if !reflect.DeepEqual(recs[i], recs[0]) {
			t.Errorf("record %d differs from record 0: %+v vs %+v", i, recs[i], recs[0])
		}
	}
}

// TestCorruptCacheEntryIsMiss: whatever sits in an entry's file that is not
// an entry — garbage, nothing, valid JSON that decodes to all-zero metrics,
// the front of an interrupted write — is re-simulated, never served, and the
// re-simulation's Put heals the file.
func TestCorruptCacheEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Kernels: []int{10}, Sizes: []int{8}, Cores: []int{1}}
	recs, err := (&Engine{Cache: cache}).Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, recs[0].Key+".json")
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, content string }{
		{"not json", "not json"},
		{"empty", ""},
		{"null", "null"},
		{"empty object", "{}"},
		{"truncated", string(entry[:len(entry)/2])},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			e := &Engine{Cache: cache}
			recs2, err := e.Run(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s := e.Stats(); s.Simulated != 1 || s.Hits != 0 {
				t.Errorf("corrupt entry was not re-simulated: %+v", s)
			}
			// Wall-clock timing differs between measurements; everything
			// else is deterministic.
			if recs2[0].Metrics.StripTiming() != recs[0].Metrics.StripTiming() {
				t.Error("re-simulated metrics differ")
			}
			if m, ok := cache.Get(recs[0].Key); !ok || *m != recs2[0].Metrics {
				t.Errorf("entry not healed by the re-simulation: %+v, %v", m, ok)
			}
		})
	}
}

// TestCacheKeepsToItsDirectory: a key names a file inside the cache only if
// it has the shape cacheKey makes. Anything else — a path that climbs out,
// an absolute path, upper-case or short hex — misses on Get and is refused by
// Put, and nothing is written anywhere.
func TestCacheKeepsToItsDirectory(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b")
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &Metrics{Instructions: 10, Cycles: 5}
	good := strings.Repeat("0123456789abcdef", 4)
	if !ValidKey(good) {
		t.Fatalf("ValidKey(%q) = false", good)
	}
	for _, bad := range []string{"", "../../escaped", "/tmp/escaped", good[:63], good + "0",
		strings.ToUpper(good), "../../" + good[6:], good[:62] + "/x"} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
		if err := cache.Put(bad, m); err == nil {
			t.Errorf("Put(%q) stored an entry", bad)
		}
		if _, ok := cache.Get(bad); ok {
			t.Errorf("Get(%q) hit", bad)
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if len(files) != 0 {
		t.Errorf("refused keys left files behind: %v", files)
	}
	if err := cache.Put(good, m); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Get(good); !ok || *got != *m {
		t.Errorf("Get(%q) = %+v, %v after Put", good, got, ok)
	}
}

func TestEmitOrderAndJSONLDeterminism(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		jw := NewJSONLWriter(&buf)
		e := &Engine{Workers: 8}
		if _, err := e.Run(smallSpec(), func(r Record) {
			if err := jw.Write(r); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Two independent measurements agree on everything except the host
	// wall-clock fields (cached re-runs are byte-identical including those;
	// TestEngineCachesAcrossEngines covers that).
	a, b := render(), render()
	ra, err := ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ReadJSONL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("runs produced %d and %d records", len(ra), len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		x.Metrics, y.Metrics = x.Metrics.StripTiming(), y.Metrics.StripTiming()
		if !reflect.DeepEqual(x, y) {
			t.Errorf("record %d differs between runs: %+v vs %+v", i, x, y)
		}
	}
	recs := ra
	pts, err := smallSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(pts) {
		t.Fatalf("JSONL has %d records, grid has %d points", len(recs), len(pts))
	}
	for i := range recs {
		if recs[i].Point != pts[i] {
			t.Errorf("record %d is point %+v, want grid order %+v", i, recs[i].Point, pts[i])
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{Point: Point{Kernel: 2, Name: "x/y", N: 16, Cores: 4, Topology: TopoRing, Shortcut: true, Seed: 1},
			Metrics: Metrics{Instructions: 10, Cycles: 5, IPC: 2, NocMessages: 3, Checksum: 42}, Key: "abc"},
		{Point: Point{Kernel: 3, Name: "z", N: 8, Cores: 1, Topology: TopoCrossbar, Seed: 1}, Err: "boom"},
	}
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	for _, r := range recs {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip: got %+v, want %+v", got, recs)
	}
}

func TestDiff(t *testing.T) {
	p1 := Point{Kernel: 2, Name: "a", N: 16, Cores: 4, Topology: TopoRing, Shortcut: true, Seed: 1}
	p2 := Point{Kernel: 3, Name: "b", N: 16, Cores: 4, Topology: TopoRing, Shortcut: true, Seed: 1}
	p3 := Point{Kernel: 4, Name: "c", N: 16, Cores: 4, Topology: TopoRing, Shortcut: true, Seed: 1}
	base := []Record{
		{Point: p1, Metrics: Metrics{Cycles: 100, IPC: 1, NocMessages: 50}},
		{Point: p2, Metrics: Metrics{Cycles: 10, IPC: 1, NocMessages: 5}},
	}
	cur := []Record{
		{Point: p1, Metrics: Metrics{Cycles: 50, IPC: 2, NocMessages: 40}},
		{Point: p3, Metrics: Metrics{Cycles: 1, IPC: 1, NocMessages: 1}},
	}
	d := Diff(base, cur)
	if len(d.Rows) != 1 || d.BaseOnly != 1 || d.NewOnly != 1 {
		t.Fatalf("diff = %+v, want 1 matched, 1 base-only, 1 new-only", d)
	}
	row := d.Rows[0]
	if row.Speedup() != 2.0 {
		t.Errorf("speedup = %v, want 2.0", row.Speedup())
	}
	if row.MsgDelta() != -10 {
		t.Errorf("message delta = %d, want -10", row.MsgDelta())
	}
	// A renamed but otherwise identical point still matches.
	renamed := []Record{{Point: func() Point { p := p1; p.Name = "renamed"; return p }(),
		Metrics: Metrics{Cycles: 100}}}
	if d := Diff(base[:1], renamed); len(d.Rows) != 1 {
		t.Error("diff failed to match a point that differs only in display name")
	}
	// Failed records never match.
	failed := []Record{{Point: p1, Err: "x"}}
	if d := Diff(base[:1], failed); len(d.Rows) != 0 {
		t.Error("diff matched a failed record")
	}
}

func TestTableRendersFailures(t *testing.T) {
	recs := []Record{{Point: Point{Kernel: 2, Name: "s/q", N: 4, Cores: 1, Topology: TopoCrossbar}, Err: "boom"}}
	out := Table(recs)
	if want := "FAIL: boom"; !bytes.Contains([]byte(out), []byte(want)) {
		t.Errorf("table %q does not contain %q", out, want)
	}
}

// TestConcurrentDuplicatesWithPool pins the singleflight + warm-pool
// interaction on fuzz-shaped load: K identical concurrent points simulate
// exactly once on a pool-backed engine (the flight leader takes one machine
// from the pool and parks it back), and a follow-up wave of same-shape
// points — different seed, so a cache miss but the same machine identity —
// runs on the warmed machine and still agrees with a fresh engine.
func TestConcurrentDuplicatesWithPool(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cache: cache, Pool: machine.NewPool()}
	p := Point{Kernel: 10, N: 8, Cores: 2, Topology: TopoCrossbar, Shortcut: true, Seed: 1}
	const K = 8
	recs := make([]Record, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = e.Measure(p)
		}()
	}
	wg.Wait()
	s := e.Stats()
	if s.Simulated != 1 || s.Failures != 0 {
		t.Errorf("stats = %+v, want exactly 1 simulation for %d identical submissions", s, K)
	}
	if s.Hits+s.Coalesced != K-1 {
		t.Errorf("stats = %+v, want the other %d served by cache or coalescing", s, K-1)
	}
	for i := 1; i < K; i++ {
		if !reflect.DeepEqual(recs[i], recs[0]) {
			t.Errorf("record %d differs from record 0", i)
		}
	}

	// Same machine shape, different seed: a cache miss that must be served
	// by the machine parked by the first wave, bit-identical to a fresh
	// engine's answer.
	p2 := p
	p2.Seed = 2
	warm := e.Measure(p2)
	if warm.Err != "" {
		t.Fatalf("warm-pool measure failed: %s", warm.Err)
	}
	if ps := e.Pool.Stats(); ps.Hits == 0 {
		t.Errorf("pool stats %+v: second wave never hit the pool", ps)
	}
	fresh := (&Engine{}).Measure(p2)
	warm.Metrics = warm.Metrics.StripTiming()
	fresh.Metrics = fresh.Metrics.StripTiming()
	if !reflect.DeepEqual(warm, fresh) {
		t.Errorf("pooled record differs from fresh:\n%+v\nvs\n%+v", warm, fresh)
	}
}
