package sweep

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// streamRec is a distinguishable record for grid index i.
func streamRec(i int) Record {
	return Record{Point: Point{Kernel: 2, Name: "k", N: i, Cores: 1, Topology: TopoCrossbar, Shortcut: true}}
}

// TestStreamEmitsGridOrderUnderShuffledCompletion: records landed from many
// goroutines in random order come out of Collect in grid order, each once,
// and the returned slice matches what was emitted.
func TestStreamEmitsGridOrderUnderShuffledCompletion(t *testing.T) {
	const n = 64
	s := NewStream(n)
	order := rand.New(rand.NewSource(1)).Perm(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range order[g*n/8 : (g+1)*n/8] {
				if !s.Complete(i, streamRec(i)) {
					t.Errorf("first Complete(%d) returned false", i)
				}
			}
		}(g)
	}
	var emitted []int
	recs, err := s.Collect(func(r Record) { emitted = append(emitted, r.N) })
	wg.Wait()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(emitted) != n || len(recs) != n {
		t.Fatalf("emitted %d, returned %d, want %d", len(emitted), len(recs), n)
	}
	for i := range emitted {
		if emitted[i] != i || recs[i].N != i {
			t.Fatalf("position %d: emitted n=%d, returned n=%d — not grid order", i, emitted[i], recs[i].N)
		}
		if !s.Done(i) {
			t.Errorf("Done(%d) false after Collect", i)
		}
	}
}

// TestStreamFirstWriteWins: a second Complete of an index returns false and
// leaves the first record in place.
func TestStreamFirstWriteWins(t *testing.T) {
	s := NewStream(2)
	if s.Done(0) {
		t.Error("Done(0) true before any Complete")
	}
	first, late := streamRec(0), streamRec(0)
	first.Cycles, late.Cycles = 111, 222
	if !s.Complete(0, first) {
		t.Fatal("first Complete returned false")
	}
	if s.Complete(0, late) {
		t.Error("second Complete of the same index returned true")
	}
	s.Complete(1, streamRec(1))
	recs, err := s.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Cycles != 111 {
		t.Errorf("index 0 holds cycles=%d, want the first record's 111", recs[0].Cycles)
	}
}

// TestStreamCollectJoinsErrorsInGridOrder pins the per-point error text and
// that failures are joined in grid order however they landed.
func TestStreamCollectJoinsErrorsInGridOrder(t *testing.T) {
	s := NewStream(3)
	bad2 := streamRec(2)
	bad2.Err = "checksum 1, reference 2"
	bad0 := streamRec(0)
	bad0.Err = "boom"
	s.Complete(2, bad2)
	s.Complete(1, streamRec(1))
	s.Complete(0, bad0)
	emitted := 0
	recs, err := s.Collect(func(Record) { emitted++ })
	if emitted != 3 || len(recs) != 3 {
		t.Fatalf("emitted %d, returned %d: failed points must still stream", emitted, len(recs))
	}
	want := strings.Join([]string{
		"k n=0 c1/crossbar/sc=on/cap=0: boom",
		"k n=2 c1/crossbar/sc=on/cap=0: checksum 1, reference 2",
	}, "\n")
	if err == nil || err.Error() != want {
		t.Errorf("joined error:\n%v\nwant:\n%s", err, want)
	}
}

// TestMeasureEachMeasuresEveryPointOnce: the engine's fan-out measures every
// point once and calls done with the matching index.
func TestMeasureEachMeasuresEveryPointOnce(t *testing.T) {
	pts, err := (&Spec{Kernels: []int{2, 10}, Sizes: []int{8}, Cores: []int{1, 2}}).Points()
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 2}
	var mu sync.Mutex
	seen := make(map[int]Record)
	e.MeasureEach(pts, func(i int, rec Record) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[i]; dup {
			t.Errorf("done(%d) called twice", i)
		}
		seen[i] = rec
	})
	if len(seen) != len(pts) || e.Stats().Points != len(pts) {
		t.Fatalf("measured %d of %d points (engine counted %d)", len(seen), len(pts), e.Stats().Points)
	}
	for i, p := range pts {
		if r := seen[i]; r.Err != "" || r.Kernel != p.Kernel || r.Cores != p.Cores {
			t.Errorf("done(%d) got %+v (err %q), want point %+v", i, r.Point, r.Err, p)
		}
	}
}
