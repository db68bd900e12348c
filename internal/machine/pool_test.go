package machine

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/progs"
)

func mustSumFork(t *testing.T, n int) *isa.Program {
	t.Helper()
	p, err := progs.BuildSumFork(progs.Vector(n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustFibFork(t *testing.T, n int) *isa.Program {
	t.Helper()
	p, err := progs.BuildFibFork(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFifoSlideAndOrder(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 100; i++ {
		f.Push(i)
	}
	for i := 0; i < 100; i++ {
		if f.Len() != 100-i {
			t.Fatalf("len %d, want %d", f.Len(), 100-i)
		}
		if got := f.Pop(); got != i {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
	if !f.Empty() {
		t.Fatal("queue not empty after draining")
	}
	// Interleaved push/pop must keep FIFO order across the slide compaction.
	next, expect := 0, 0
	for round := 0; round < 500; round++ {
		f.Push(next)
		next++
		f.Push(next)
		next++
		if got := f.Pop(); got != expect {
			t.Fatalf("round %d: pop %d, want %d", round, got, expect)
		}
		expect++
	}
	for !f.Empty() {
		if got := f.Pop(); got != expect {
			t.Fatalf("drain: pop %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained to %d, pushed %d", expect, next)
	}
}

func TestFifoRemoveKeepsOrder(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 6; i++ {
		f.Push(i)
	}
	f.Pop()     // head offset non-zero
	f.Remove(2) // removes live element index 2 == value 3
	want := []int{1, 2, 4, 5}
	if f.Len() != len(want) {
		t.Fatalf("len %d, want %d", f.Len(), len(want))
	}
	for i, w := range want {
		if got := f.At(i); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestMaatTable drives the open-addressed MAAT directly: insert, overwrite,
// growth-with-rehash and the recycled-backing path. Keys are multiples of 8
// (word addresses), the worst case for a low-bit hash — the table must stay
// correct and loadable anyway. An insert reports no previous producer, and
// an overwrite reports the one it displaced: a store takes over the entry's
// name of that cell and lets go of it when it retires.
func TestMaatTable(t *testing.T) {
	m := &Machine{}
	m.resetCells()
	var tbl maat
	var prods []cellID
	for range 600 {
		prods = append(prods, m.newCell())
	}
	prod := func(i int) cellID { return prods[i] }

	const n = 512 // several growth rounds past maatMinSize
	for i := 0; i < n; i++ {
		if old := m.maatPut(&tbl, uint64(i*8), prod(i), false); old != 0 {
			t.Fatalf("insert of key %d displaced cell %d", i*8, old)
		}
	}
	if tbl.n != n {
		t.Fatalf("table count %d, want %d", tbl.n, n)
	}
	for i := 0; i < n; i++ {
		p := tbl.get(uint64(i * 8))
		if p == 0 || p != prod(i) {
			t.Fatalf("key %d: wrong or missing producer", i*8)
		}
	}
	if tbl.get(uint64(n*8)) != 0 {
		t.Fatal("get of absent key returned a producer")
	}
	// Overwrite must replace, not duplicate.
	if old := m.maatPut(&tbl, 0, prod(599), true); old != prod(0) {
		t.Fatalf("overwrite displaced cell %d, want %d", old, prod(0))
	}
	if tbl.n != n {
		t.Fatalf("overwrite changed count to %d", tbl.n)
	}
	if p := tbl.get(0); p == 0 || p != prod(599) {
		t.Fatal("overwrite did not take")
	}

	// Release, then equip a new table: it must reuse the recycled backing
	// (free list LIFO — growth already pooled each superseded array) and
	// come back empty.
	released := tbl.entries
	pooled := len(m.maatFree)
	m.releaseMaat(&tbl)
	if tbl.entries != nil || len(m.maatFree) != pooled+1 {
		t.Fatal("release did not pool the backing array")
	}
	var tbl2 maat
	m.acquireMaat(&tbl2)
	if len(m.maatFree) != pooled || &tbl2.entries[0] != &released[0] {
		t.Fatal("acquire did not reuse the recycled backing")
	}
	if tbl2.get(0) != 0 || tbl2.n != 0 {
		t.Fatal("recycled table not empty")
	}
	m.maatPut(&tbl2, 40, prod(7), false)
	if p := tbl2.get(40); p == 0 || p != prod(7) {
		t.Fatal("recycled table lost an insert")
	}
}

// freeCells counts the cells on m's free list.
func freeCells(m *Machine) int {
	n := 0
	for h := m.cellFree; h != 0; h = cellID(m.cells[h].v) {
		n++
	}
	return n
}

// TestArenaChunkBoundaries drives an arena across several chunk boundaries —
// the regime paper-scale (big-N) runs live in, where one simulation allocates
// thousands of DynInsts — and checks that every handed-out object is distinct,
// zeroed, and survives a reset/refill cycle without aliasing.
func TestArenaChunkBoundaries(t *testing.T) {
	const chunk = 4
	a := newArena[int64](chunk)
	const n = chunk*3 + 2 // three full chunks and a partial fourth
	seen := make(map[*int64]bool, n)
	for i := 0; i < n; i++ {
		p := a.alloc()
		if *p != 0 {
			t.Fatalf("alloc %d: not zeroed (%d)", i, *p)
		}
		if seen[p] {
			t.Fatalf("alloc %d: pointer handed out twice", i)
		}
		seen[p] = true
		*p = int64(i + 1)
	}
	if len(a.chunks) != 4 {
		t.Fatalf("chunks %d, want 4", len(a.chunks))
	}
	a.reset()
	// The refill must reuse the same chunk storage, scrubbed.
	for i := 0; i < n; i++ {
		p := a.alloc()
		if *p != 0 {
			t.Fatalf("post-reset alloc %d: stale value %d", i, *p)
		}
		if !seen[p] {
			t.Fatalf("post-reset alloc %d: fresh chunk instead of reuse", i)
		}
	}
	if len(a.chunks) != 4 {
		t.Fatalf("refill grew the arena to %d chunks", len(a.chunks))
	}
}

// TestDynInstSize pins the units of a run's memory. A DynInst lives from
// fetch to retire, so its size is paid per instruction of the un-retired
// window and scrubbed once per instruction (recycle); a cell lives while
// something names it, its 4-byte count beside it, and a MAAT entry while its
// section is undumped. A field added must be paid for by another. DynInst was
// 264 bytes while it named cells by pointer; 4-byte handles make it 216, and
// the three cells it takes over from the alias tables (prev, prevMem) 232.
// 232 became 152 when it stopped keeping a pointer to its static instruction
// (read from the program by IP), its IP, ordinal and nine cycles went to 32
// bits, its fork copies to a register mask and its sources to cell handles
// beside packed registers. It was 336 while the result cells lived inside
// the instruction and 368 before the byte-wide fields were packed; a MAAT
// entry was 24 bytes with a pointer.
func TestDynInstSize(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got > 160 {
		t.Errorf("DynInst is %d bytes, budget 160", got)
	}
	if got := unsafe.Sizeof(cell{}); got > 32 {
		t.Errorf("cell is %d bytes, budget 32", got)
	}
	if got := unsafe.Sizeof(maatEntry{}); got > 16 {
		t.Errorf("maatEntry is %d bytes, budget 16", got)
	}
}

// TestSectionLayout pins the layout a renaming request's search step reads.
// A step reads, of each section it passes, the link to the one before and the
// host, whether it is dumped, renamed or address-renamed, its request count,
// one alias-table slot and the MAAT's presence word; dumpOldest and the retire
// and address-rename picks read the same counts and the order label. All of
// them start in the first two cache lines, so a step costs two lines of the
// section instead of the six it read while 544 bytes of register copies sat
// between them. Section was 904 bytes (Go's 1 024-byte size class), its
// register files 17 16-byte value/bit pairs each; with the presence bits
// packed in a word it was 624, and with the order's two links it is 640, all
// of the 640-byte class. A field added has to make room first.
func TestSectionLayout(t *testing.T) {
	if got := unsafe.Sizeof(Section{}); got > 640 {
		t.Errorf("Section is %d bytes, budget 640", got)
	}
	var s Section
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"ord", unsafe.Offsetof(s.ord)},
		{"prev", unsafe.Offsetof(s.prev)},
		{"Core", unsafe.Offsetof(s.Core)},
		{"BaseLevel", unsafe.Offsetof(s.BaseLevel)},
		{"fetchDone", unsafe.Offsetof(s.fetchDone)},
		{"fetched", unsafe.Offsetof(s.fetched)},
		{"renamed", unsafe.Offsetof(s.renamed)},
		{"memOps", unsafe.Offsetof(s.memOps)},
		{"memRen", unsafe.Offsetof(s.memRen)},
		{"nreqs", unsafe.Offsetof(s.nreqs)},
		{"rat", unsafe.Offsetof(s.rat)},
		{"maat.bloom", unsafe.Offsetof(s.maat) + unsafe.Offsetof(s.maat.bloom)},
		{"maat.entries", unsafe.Offsetof(s.maat) + unsafe.Offsetof(s.maat.entries)},
		{"maat.n", unsafe.Offsetof(s.maat) + unsafe.Offsetof(s.maat.n)},
		{"maat.shift", unsafe.Offsetof(s.maat) + unsafe.Offsetof(s.maat.shift)},
	} {
		if f.off >= 128 {
			t.Errorf("Section.%s is at offset %d, outside the hot header (< 128)", f.name, f.off)
		}
	}
}

// TestRequestSize pins a renaming request to Go's 64-byte size class: the
// requester's core, which a step reads, packs beside the consumer's level,
// and the slot handle beside the kind. A request was 72 bytes before it
// carried the core (an 80-byte object); an int for the core made it 80.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 64 {
		t.Errorf("request is %d bytes, budget 64", got)
	}
}

// TestMaatPresenceWord checks the MAAT's presence word against its one rule,
// no false negatives, through several growth rounds: every inserted key is
// found, a key that was never inserted is not (also when its bit is set by
// another key), and a table handed back and out again holds nothing of its
// old keys, with a clear word.
func TestMaatPresenceWord(t *testing.T) {
	m := &Machine{}
	var tbl maat
	rng := rand.New(rand.NewPCG(35, 1))
	in := map[uint64]cellID{}
	for len(in) < 3000 {
		k := rng.Uint64() &^ 7
		if _, dup := in[k]; dup {
			continue
		}
		in[k] = cellID(len(in) + 1)
		m.maatPut(&tbl, k, in[k], false)
	}
	if len(tbl.entries) < 4096 {
		t.Fatalf("table has %d entries, want several growth rounds", len(tbl.entries))
	}
	for k, p := range in {
		if got := tbl.get(k); got != p {
			t.Fatalf("key %#x: got %d, want %d", k, got, p)
		}
	}
	// Every bit is set, so every absent key shares its bit with a present one.
	if tbl.bloom != ^uint64(0) {
		t.Fatalf("presence word %#x after 3000 keys, want every bit set", tbl.bloom)
	}
	for i := 0; i < 1000; i++ {
		k := rng.Uint64() &^ 7
		if _, ok := in[k]; ok {
			continue
		}
		if got := tbl.get(k); got != 0 {
			t.Fatalf("absent key %#x: got %d, want 0", k, got)
		}
	}

	// A small table: absent keys sharing a present key's bit still miss.
	var small maat
	m.maatPut(&small, 8, 1, true)
	bit := maatBit(maatHash(8))
	for k, n := uint64(16), 0; n < 100; k += 8 {
		if maatBit(maatHash(k)) != bit {
			continue
		}
		n++
		if got := small.get(k); got != 0 {
			t.Fatalf("key %#x shares key 8's bit: got %d, want 0", k, got)
		}
	}

	m.releaseMaat(&tbl)
	if tbl.bloom != 0 {
		t.Fatalf("released table's presence word is %#x", tbl.bloom)
	}
	var again maat
	m.acquireMaat(&again)
	if again.bloom != 0 || len(again.entries) < 4096 {
		t.Fatalf("acquired table: word %#x, %d entries; want 0 and the big backing", again.bloom, len(again.entries))
	}
	for k := range in {
		if got := again.get(k); got != 0 {
			t.Fatalf("recycled table finds old key %#x (%d)", k, got)
		}
	}
}

// TestMaatBigN scales the alias table to thousands of keys — the footprint a
// paper-scale section can accumulate — across several growth/rehash rounds,
// then checks the recycle path hands the big backing to the next table.
func TestMaatBigN(t *testing.T) {
	m := &Machine{}
	var tbl maat
	const n = 5000
	for i := 0; i < n; i++ {
		m.maatPut(&tbl, uint64(i*8), cellID(i+1), false)
	}
	if tbl.n != n {
		t.Fatalf("table count %d, want %d", tbl.n, n)
	}
	for i := 0; i < n; i++ {
		if p := tbl.get(uint64(i * 8)); p != cellID(i+1) {
			t.Fatalf("key %d: wrong or missing producer after growth", i*8)
		}
	}
	if got := len(tbl.entries); got < n*4/3 {
		t.Fatalf("load factor bound violated: %d entries for %d keys", got, n)
	}
	m.releaseMaat(&tbl)
	var tbl2 maat
	m.acquireMaat(&tbl2)
	if len(tbl2.entries) < n {
		t.Fatalf("recycled backing has %d entries, want the big array back", len(tbl2.entries))
	}
	for i := range tbl2.entries {
		if tbl2.entries[i].p != 0 {
			t.Fatalf("recycled entry %d not scrubbed", i)
		}
	}
}

// TestBitsetNext: next finds the smallest member at or after its argument
// within a word, across words and not at all, and a loop over next sees a
// member set above the cursor while it runs (the scheduler arms cores during
// its own iteration).
func TestBitsetNext(t *testing.T) {
	b := make(bitset, 3)
	for _, i := range []int{0, 63, 64, 130} {
		b.set(i)
	}
	for _, c := range []struct{ from, want int }{
		{0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 130}, {130, 130}, {131, -1}, {192, -1}, {500, -1},
	} {
		if got := b.next(c.from); got != c.want {
			t.Errorf("next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.unset(63)
	var seen []int
	for i := b.next(0); i >= 0; i = b.next(i + 1) {
		seen = append(seen, i)
		if i == 64 {
			b.set(100) // above the cursor: visited in this pass
			b.set(5)   // below it: not
		}
	}
	if want := []int{0, 64, 100, 130}; !slices.Equal(seen, want) {
		t.Errorf("iteration visited %v, want %v", seen, want)
	}
}

// TestHostIndexMatchesScan drives the production chooser (hostIndex.pick,
// through chooseHost) and the policy's executable definition (scanHost) side
// by side over seeded random sequences of section assignments and dumps: same
// core and same rrHost at every step, on chips of one core, just under, at
// and just over one bitset word, and the 3 072 cores of the paper's example;
// spreading and packing with caps 1–3. Each sequence fills the chip until
// every core is at the cap and the soft overflow spreads (packing) or every
// core hosts several sections (spreading), drains it to nothing and fills it
// half again, so rrHost wraps many times and the index's lazily advanced
// minimum moves both ways. Loads change only through setLive, as in the
// machine. One index serves every sequence, reset from a loaded state to a
// narrower or a wider chip each time, as a pooled machine's is by bind after
// an aborted run: a bucket bit that survived the reset misplaces a section.
//
// Mutation-checked: starting the cyclic search at rr+1 in pick (fails on the
// first chip wider than one core), skipping the bucket move when a load
// decreases (the dumpOldest side of setLive) and not clearing the buckets in
// reset each fail within a few steps.
func TestHostIndexMatchesScan(t *testing.T) {
	t.Parallel() // seconds of scanHost on 3 072 cores
	m := &Machine{}
	for _, cores := range []int{3072, 1, 65, 63, 64, 3072} {
		for limit := 0; limit <= 3; limit++ {
			rng := rand.New(rand.NewPCG(uint64(cores), uint64(limit)))
			slab := make([]Core, cores)
			m.cfg = Config{Cores: cores, MaxSectionsPerCore: limit}
			m.cores = make([]*Core, cores)
			for i := range slab {
				slab[i].id = i
				m.cores[i] = &slab[i]
			}
			m.rrHost = 0
			m.loads.reset(cores)
			var hosts []int // the hosting core of every live section
			step := 0
			// walk assigns with probability pAssign and dumps a random live
			// section otherwise, until the number of live sections reaches target.
			walk := func(pAssign float64, target int) {
				for len(hosts) != target {
					step++
					if len(hosts) == 0 || rng.Float64() < pAssign {
						want := m.scanHost()
						wantRR := (want + 1) % cores
						got := m.chooseHost()
						if got != want || m.rrHost != wantRR {
							t.Fatalf("cores=%d cap=%d step %d (%d live): index chose core %d (rrHost %d), the scan core %d (rrHost %d)",
								cores, limit, step, len(hosts), got, m.rrHost, want, wantRR)
						}
						m.setLive(m.cores[got], m.cores[got].live+1)
						hosts = append(hosts, got)
					} else {
						i := rng.IntN(len(hosts))
						c := m.cores[hosts[i]]
						hosts[i] = hosts[len(hosts)-1]
						hosts = hosts[:len(hosts)-1]
						m.setLive(c, c.live-1)
					}
				}
			}
			full := cores*max(limit, 2) + cores/2 + 3 // past the cap on every core
			walk(0.7, full)
			if limit > 0 {
				for _, c := range m.cores {
					if c.live < limit {
						t.Fatalf("cores=%d cap=%d: core %d hosts %d sections with %d live; the walk never reached the soft overflow",
							cores, limit, c.id, c.live, len(hosts))
					}
				}
			}
			walk(0.3, 0)
			if m.loads.pop[0] != cores {
				t.Errorf("cores=%d cap=%d: %d of %d cores in bucket 0 of an empty chip", cores, limit, m.loads.pop[0], cores)
			}
			walk(0.6, full/2) // and the next reset finds it like this
		}
	}
}

// TestResetReproduces pins Machine.Reset's contract: a warmed machine re-runs
// the same program to a bit-identical Result, under both schedulers — also
// when the run in the middle poisoned every instruction it retired instead of
// recycling it, and the one after finds the arena grown by that.
func TestResetReproduces(t *testing.T) {
	for _, dense := range []bool{false, true} {
		p := mustSumFork(t, 40)
		cfg := DefaultConfig(5)
		cfg.Dense = dense
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := mustRunRows(t, m)
		for round := 0; round < 3; round++ {
			m.Reset()
			m.poison = round == 1 // Reset clears it again
			again, err := RunRows(m)
			if err != nil {
				t.Fatalf("dense=%v round %d: %v", dense, round, err)
			}
			sameRun(t, fmt.Sprintf("reset re-run %d", round), first, again)
		}
	}
}

// parked counts the instructions and requests on waiter lists anywhere in
// the machine: on every cell the arena's storage holds, handed out or not,
// and at every section.
func parked(m *Machine) (insts, reqs int) {
	for s := m.head; s != nil; s = s.next {
		for r := s.waiting; r != nil; r = r.next {
			reqs++
		}
	}
	for _, c := range m.cells[:cap(m.cells)] {
		for d := c.insts; d != nil; d = d.next {
			insts++
		}
		for r := c.reqs; r != nil; r = r.next {
			reqs++
		}
	}
	return insts, reqs
}

// TestResetAfterError: Reset must also recover a machine whose run aborted
// (sections not dumped, requests in flight, instructions and requests parked
// on cells and sections) back to a clean, runnable state: the next run equals
// a fresh machine's bit for bit, nothing stays parked on a recycled cell or
// section, every request object is back in the pool, and the abort-and-rerun
// cycle allocates no more than a plain warmed re-run.
func TestResetAfterError(t *testing.T) {
	p := mustSumFork(t, 40)
	fresh, err := New(p, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	want := mustRunRows(t, fresh)

	m, err := New(p, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	abort := func() {
		m.cfg.MaxCycles = want.Cycles / 2 // mid-run
		if _, err := m.Run(); err == nil {
			t.Fatal("truncated run unexpectedly succeeded")
		}
	}
	var rows Collector // one buffer for every re-run: the allocation bound below
	rerun := func() Traced {
		m.Reset()
		m.cfg.MaxCycles = 100 << 20
		rows.Attach(m)
		got, err := m.Run()
		if err != nil {
			t.Fatalf("run after error+Reset: %v", err)
		}
		return Traced{got, rows.Timings(got)}
	}

	abort()
	if insts, reqs := parked(m); insts == 0 || reqs == 0 {
		t.Fatalf("the aborted run left %d instructions and %d requests parked; the test needs both", insts, reqs)
	}
	m.Reset()
	if insts, reqs := parked(m); insts != 0 || reqs != 0 {
		t.Errorf("after Reset %d instructions and %d requests are still parked", insts, reqs)
	}
	if len(m.reqFree) != len(m.reqAll) {
		t.Errorf("after Reset %d of %d request objects are pooled", len(m.reqFree), len(m.reqAll))
	}
	for _, s := range m.secFree {
		if s.waiting != nil || s.nreqs != 0 {
			t.Fatalf("pooled section keeps a waiter list or a request count (%d)", s.nreqs)
		}
	}
	sameRun(t, "reset after error", want, rerun())

	var again Traced
	allocs := testing.AllocsPerRun(3, func() {
		m.Reset()
		abort()
		again = rerun()
	})
	sameRun(t, "reset after repeated errors", want, again)
	// The Result's slices, the collector's two index arrays, the abort's error
	// text and the fixed handful boot allocates; a leaked request or a regrown
	// queue would add one per object.
	if allocs > 64 {
		t.Errorf("abort, Reset and re-run allocate %.0f times on a warmed machine, budget 64", allocs)
	}
}
