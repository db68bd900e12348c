package machine

import (
	"testing"
	"unsafe"

	"repro/internal/asm"
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
	want := mustRunRows(t, fresh)

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
		got, err := runRows(m)
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
		want := mustRunRows(t, fresh)
		got, err := p.Get("", next.prog, DefaultConfig(next.cores))
		if err != nil {
			t.Fatalf("%s: Get: %v", next.label, err)
		}
		if got != m {
			t.Fatalf("%s: Get constructed instead of rebinding the parked machine", next.label)
		}
		res, err := runRows(got)
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
	want := mustRunRows(t, fresh)
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
		got, err := runRows(m)
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

// TestSinkIsClearedByResetAndPool: a row sink belongs to one run. Set before a
// run, it sees every row of that run and none of the next — whether the next
// run comes after Reset or after a trip through the pool to another caller,
// who set no sink and must not feed the previous caller's.
func TestSinkIsClearedByResetAndPool(t *testing.T) {
	prog := mustSumFork(t, 40)
	p := &Pool{MaxIdle: 1}
	m, err := p.Get("", prog, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	m.SetSink(func(InstTiming) { rows++ })
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(rows) != r.Instructions {
		t.Fatalf("the sink saw %d rows of a %d-instruction run", rows, r.Instructions)
	}
	m.Reset()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if int64(rows) != r.Instructions {
		t.Errorf("the sink saw %d rows of the run after Reset", int64(rows)-r.Instructions)
	}
	m.SetSink(func(InstTiming) { rows++ }) // and is still set when the machine is parked
	p.Put("", m)
	again, err := p.Get("", mustFibFork(t, 7), DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if again != m {
		t.Fatal("the pool built a second machine")
	}
	if _, err := again.Run(); err != nil {
		t.Fatal(err)
	}
	if int64(rows) != r.Instructions {
		t.Errorf("the sink saw %d rows of the next caller's run", int64(rows)-r.Instructions)
	}
}

// TestParkedMachineIsBounded: a machine parked in the pool keeps at most
// parkedArenaBytes of arenas, whatever it ran last. The program is one
// section looping 300 000 times over a store: 1.5 M cells, half as much again
// as the cell arena's share of the budget. Parked, the machine holds the budget and
// nothing of the run; taken out again, it regrows and reproduces the run bit
// for bit.
func TestParkedMachineIsBounded(t *testing.T) {
	prog, err := asm.Assemble(`
_start: movq $t, %rdi
        movq $300000, %rcx
        movq $0, %rax
loop:   addq %rcx, %rax
        movq %rax, (%rdi)
        subq $1, %rcx
        jne loop
        hlt
.data
t: .quad 0
`)
	if err != nil {
		t.Fatal(err)
	}
	keep := parkedArenaBytes / 2 / (cellChunk * int(unsafe.Sizeof(cell{})))
	p := &Pool{MaxIdle: 1}
	m, err := p.Get("", prog, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run() // no rows: a million of them is not what is tested here
	if err != nil {
		t.Fatal(err)
	}
	if want.RAX != 300000*300001/2 {
		t.Fatalf("rax = %d", want.RAX)
	}
	if got := len(m.cells.chunks); got <= keep {
		t.Fatalf("the run grew the cell arena to %d chunks; the test needs more than the %d a parked machine keeps", got, keep)
	}
	p.Put("", m)
	if got := len(m.cells.chunks); got != keep {
		t.Errorf("parked with %d cell chunks, want the budget's %d", got, keep)
	}
	if len(m.order) != 0 || m.cells.allocated() != 0 {
		t.Errorf("parked with %d sections and %d cells of the run still held", len(m.order), m.cells.allocated())
	}
	again, err := p.Get("", prog, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if again != m {
		t.Fatal("the pool built a second machine")
	}
	got, err := again.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "re-run after trimming", traced{Result: want}, traced{Result: got})
}

// TestPoisonNeverReuses: the poison switch does what the oracles' poisoned
// legs count on. A poisoned run takes one DynInst from the arena per
// instruction and leaves every one of them overwritten; a plain run of the
// same program takes no more than were ever in flight.
func TestPoisonNeverReuses(t *testing.T) {
	prog := mustSumFork(t, 40)
	m, err := New(prog, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.dyns.allocated(); got != m.peakInFlight || int64(got) >= r.Instructions {
		t.Errorf("plain run: %d DynInsts allocated, %d in flight at most, %d instructions", got, m.peakInFlight, r.Instructions)
	}
	m.Reset()
	m.poison = true
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := int64(m.dyns.allocated()); got != r.Instructions {
		t.Fatalf("poisoned run: %d DynInsts allocated for %d instructions", got, r.Instructions)
	}
	left := m.dyns.allocated()
	for _, chunk := range m.dyns.chunks {
		for i := 0; i < len(chunk) && left > 0; i, left = i+1, left-1 {
			if chunk[i] != poisoned {
				t.Fatalf("a retired instruction was not overwritten: %+v", chunk[i])
			}
		}
	}
}
