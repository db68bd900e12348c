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

// TestStreamNextFollowsThePrefix: Next hands out the completed prefix only,
// and its wake channel is shared by every waiter, closed when the prefix
// grows and not when an index past a gap lands, and nil once the grid is
// complete. Prefix never makes one.
func TestStreamNextFollowsThePrefix(t *testing.T) {
	s := NewStream(4)
	closed := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	if p := s.Prefix(); len(p) != 0 || s.wake != nil {
		t.Fatalf("Prefix of an empty stream = %d records, wake made %v", len(p), s.wake != nil)
	}
	// Four concurrent waiters, each with nothing to read yet.
	waiters := make(chan (<-chan struct{}))
	var released sync.WaitGroup
	for range 4 {
		released.Add(1)
		go func() {
			defer released.Done()
			recs, w := s.Next(0)
			if len(recs) != 0 {
				t.Errorf("Next(0) before any record = %d records, want none", len(recs))
			}
			waiters <- w
			<-w
		}()
	}
	wake := <-waiters
	for range 3 {
		if w := <-waiters; w != wake {
			t.Error("concurrent waiters got different channels, want one shared")
		}
	}
	if wake == nil {
		t.Fatal("Next(0) of an incomplete grid handed out no channel")
	}
	s.Complete(2, streamRec(2))
	if closed(wake) {
		t.Error("wake closed when index 2 landed past the gap at 0")
	}
	if recs, _ := s.Next(0); len(recs) != 0 {
		t.Errorf("Next(0) with only index 2 landed = %d records, want none", len(recs))
	}
	s.Complete(0, streamRec(0))
	if !closed(wake) {
		t.Fatal("wake not closed when index 0 extended the prefix")
	}
	released.Wait()
	recs, wake := s.Next(0)
	if len(recs) != 1 || recs[0].N != 0 || wake == nil {
		t.Fatalf("Next(0) after 2 and 0 landed = %d records, wake %v; want index 0 alone and a channel", len(recs), wake)
	}
	if recs, _ := s.Next(5); len(recs) != 0 {
		t.Errorf("Next past the grid = %d records, want none", len(recs))
	}
	s.Complete(1, streamRec(1)) // fills the gap: the prefix jumps to 3
	if !closed(wake) {
		t.Fatal("wake not closed when index 1 extended the prefix over 2")
	}
	recs, wake = s.Next(1)
	if len(recs) != 2 || recs[0].N != 1 || recs[1].N != 2 || wake == nil {
		t.Fatalf("Next(1) after 0..2 landed = %d records, wake %v; want indexes 1 and 2 and a channel", len(recs), wake)
	}
	if p := s.Prefix(); len(p) != 3 {
		t.Errorf("Prefix = %d records, want 3", len(p))
	}
	s.Complete(3, streamRec(3))
	if !closed(wake) {
		t.Fatal("wake not closed by the last record")
	}
	if recs, wake := s.Next(3); len(recs) != 1 || recs[0].N != 3 || wake != nil {
		t.Errorf("Next(3) of a complete grid = %d records, wake %v; want index 3 and no channel", len(recs), wake)
	}
	if _, wake := s.Next(4); wake != nil {
		t.Error("Next(4) of a complete grid handed out a channel")
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
