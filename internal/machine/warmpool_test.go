package machine

import (
	"testing"

	"repro/internal/isa"
)

// TestPoolHitMissDrop pins the pool mechanics: a first Get constructs, a Put
// then Get returns the very same machine, and a full pool drops further Puts.
func TestPoolHitMissDrop(t *testing.T) {
	prog := mustSumFork(t, 40)
	cfg := DefaultConfig(4)
	p := &Pool{MaxIdle: 1}

	m1, err := p.Get("", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Get("", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("two live Gets returned the same machine")
	}
	p.Put("", m1)
	p.Put("", m2) // over MaxIdle: dropped
	m3, err := p.Get("", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 {
		t.Fatal("Get did not return the pooled machine")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Dropped != 1 {
		t.Fatalf("stats %+v, want 1 hit, 2 misses, 1 dropped", s)
	}
}

// TestPoolReArmsSchedulers: one pooled machine serves requests with either
// Dense setting (a Get installs the requested configuration, scheduler
// included), and each pooled run reproduces the fresh machine's result
// bit-identically.
func TestPoolReArmsSchedulers(t *testing.T) {
	prog := mustSumFork(t, 40)
	base := DefaultConfig(5)
	fresh, err := New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	dense := base
	dense.Dense = true
	p := NewPool()
	for _, cfg := range []Config{base, dense, base} {
		m, err := p.Get("", prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.cfg.Dense != cfg.Dense {
			t.Fatalf("pooled machine not re-armed: have dense=%v, want dense=%v", m.cfg.Dense, cfg.Dense)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, "pooled run", want, got)
		p.Put("", m)
	}
	if s := p.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits, 1 miss", s)
	}
}

// TestPoolKeyCollision: the pool has no key to collide on — a machine parked
// by a 4-core run serves an 8-core Get, and then a different program,
// bit-identically to New. (The name predates the keyless pool; it is pinned
// by the tests-at-floor list.)
func TestPoolKeyCollision(t *testing.T) {
	sum, fib := mustSumFork(t, 40), mustFibFork(t, 7)
	p := NewPool()
	m, err := p.Get("", sum, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	p.Put("", m)
	for _, next := range []struct {
		label string
		prog  *isa.Program
		cores int
	}{{"wider chip", sum, 8}, {"other program", fib, 3}, {"back again", sum, 4}} {
		fresh, err := New(next.prog, DefaultConfig(next.cores))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Get("", next.prog, DefaultConfig(next.cores))
		if err != nil {
			t.Fatalf("%s: Get: %v", next.label, err)
		}
		if got != m {
			t.Fatalf("%s: Get constructed instead of rebinding the parked machine", next.label)
		}
		res, err := got.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", next.label, err)
		}
		if res.Cores != next.cores {
			t.Fatalf("%s: ran on %d cores, want %d", next.label, res.Cores, next.cores)
		}
		checkIdentical(t, next.label, want, res)
		p.Put("", got)
	}
	if s := p.Stats(); s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 3 hits, 1 miss", s)
	}
}

// TestNilPoolConstructsFresh: a nil *Pool is the no-pooling pool — every Get
// is a fresh machine that runs like New's, Put drops, and Stats stays zero.
func TestNilPoolConstructsFresh(t *testing.T) {
	prog := mustSumFork(t, 40)
	cfg := DefaultConfig(4)
	fresh, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	var p *Pool
	var prev *Machine
	for round := 0; round < 2; round++ {
		m, err := p.Get("", prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m == prev {
			t.Fatal("nil pool handed the same machine out twice")
		}
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, "nil-pool run", want, got)
		p.Put("", m)
		prev = m
	}
	if st := p.Stats(); st != (PoolStats{}) {
		t.Errorf("nil pool stats %+v, want zero", st)
	}
}
