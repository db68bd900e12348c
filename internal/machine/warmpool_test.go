package machine

import (
	"slices"
	"testing"

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
// parkedArenaBytes of arenas, whatever it ran last — Put trims it to that
// budget. The program is one section storing to 8 192 distinct words, whose
// MAAT names a cell per word until the section dumps; a run that names more
// cells at once than the budget holds takes minutes, so after the run the
// test gives the cell arena the room such a run would have left it, one cell
// past the budget. Put drops that arena; parked, the machine holds nothing
// of the run, and taken out again it regrows and reproduces the run bit for
// bit.
func TestParkedMachineIsBounded(t *testing.T) {
	prog, err := asm.Assemble(`
_start: movq $t, %rdi
        movq $8192, %rcx
        movq $0, %rax
loop:   addq %rcx, %rax
        movq %rax, (%rdi)
        addq $8, %rdi
        subq $1, %rcx
        jne loop
        hlt
.data
t: .space 65536
`)
	if err != nil {
		t.Fatal(err)
	}
	keep := parkedArenaBytes / 2 / cellBytes
	p := &Pool{MaxIdle: 1}
	m, err := p.Get("", prog, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run() // no rows: they are not what is tested here
	if err != nil {
		t.Fatal(err)
	}
	if want.RAX != 8192*8193/2 {
		t.Fatalf("rax = %d", want.RAX)
	}
	m.cells = slices.Grow(m.cells, keep+1-len(m.cells))
	p.Put("", m)
	if got := cap(m.cells); got > keep {
		t.Errorf("parked with room for %d cells, budget %d", got, keep)
	}
	if m.undumped() != 0 || len(m.sections) != 0 || len(m.cells) != 1 {
		t.Errorf("parked with %d sections, %d section records and %d cells of the run still held",
			m.undumped(), len(m.sections), len(m.cells)-1)
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
// instruction and leaves every one of them overwritten, and it leaves every
// cell it took overwritten too — nothing names a cell at the end of a run, so
// every one was freed — with none handed out twice, and it hands no section
// shell back; a plain run of the same program takes no more DynInsts than
// were ever in flight and fewer shells than it has sections, and ends with
// every cell and every shell it took back on the free list.
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
	plainCells := len(m.cells) - 1
	if freeCells(m) != plainCells {
		t.Errorf("plain run: %d of the %d cells it took are back on the free list", freeCells(m), plainCells)
	}
	if plainShells := len(m.secFree); plainShells >= len(r.Sections) || m.undumped() != 0 {
		t.Errorf("plain run: %d shells for %d sections, %d still in the order", plainShells, len(r.Sections), m.undumped())
	}
	m.Reset()
	m.poison = true
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.secFree) != 0 {
		t.Errorf("poisoned run: %d shells handed back", len(m.secFree))
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
	if len(m.cells)-1 <= plainCells || freeCells(m) != 0 {
		t.Errorf("poisoned run: %d cells taken (%d plain), %d handed back", len(m.cells)-1, plainCells, freeCells(m))
	}
	for h, c := range m.cells[1:] {
		if c != poisonedCell || m.names[h+1] != 0 {
			t.Fatalf("cell %d is named %d times after the run and reads %+v", h+1, m.names[h+1], c)
		}
	}
}
