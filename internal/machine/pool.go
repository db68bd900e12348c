package machine

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// This file holds the allocation-free plumbing behind the simulated hot
// path: the generic sliding-window FIFO backing the per-core queues, the
// bitset behind the scheduler's armed cores and the host chooser's index of
// cores by load, the arenas that pool DynInst and cell objects (and the free
// lists that recycle a DynInst the cycle it retires and a cell the moment
// nothing names it), the open-addressed memory address alias table recycled
// through a per-machine free list, and the request/section pools. A profile
// of the previous implementation showed ~205k heap allocations per quickSort
// simulation — a fresh *DynInst per dynamic instruction, a map per
// rename/execute evaluation, interface boxing on every alias-table insert —
// with the GC charging every simulated cycle.
// Steady-state simulation on a warmed machine (see Machine.Reset) now
// allocates nothing per cycle; the regression tests in internal/bench pin
// that property.

// ---------------------------------------------------------------- fifo ----

// fifo is a first-in-first-out queue backed by a sliding window over one
// reusable buffer: Pop advances a head index instead of re-slicing away the
// front (which leaks capacity and forces append to reallocate), and the
// dead front region is compacted amortized O(1). The zero value is ready to
// use. Besides the per-core queues it holds the machine's section order,
// which also inserts in the middle (Insert) and is scanned whole (Items).
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) Len() int    { return len(f.buf) - f.head }
func (f *fifo[T]) Empty() bool { return f.head >= len(f.buf) }

// Front returns the oldest element. The queue must not be empty.
func (f *fifo[T]) Front() T { return f.buf[f.head] }

// At returns the i-th element counting from the front.
func (f *fifo[T]) At(i int) T { return f.buf[f.head+i] }

// Items returns the elements, front first. The slice aliases the buffer and
// is valid until the next Push, Pop, Insert or Remove.
func (f *fifo[T]) Items() []T { return f.buf[f.head:] }

// Push appends v at the back.
func (f *fifo[T]) Push(v T) {
	if f.head == len(f.buf) {
		// Empty: rewind so the whole capacity is reusable.
		f.buf = f.buf[:0]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the front element. The vacated slot is zeroed so
// pooled pointers are not pinned, and the dead front region is slid out once
// it dominates the buffer.
func (f *fifo[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 32 && f.head > len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// Insert puts v at the i-th place counting from the front (i <= Len()),
// shifting the elements from there on back by one.
func (f *fifo[T]) Insert(i int, v T) {
	var zero T
	f.Push(zero)
	idx := f.head + i
	copy(f.buf[idx+1:], f.buf[idx:])
	f.buf[idx] = v
}

// Remove deletes the i-th element counting from the front, preserving the
// order of the rest. O(live length) — used only for the tiny per-core
// suspended list, whose scan order is the suspension order.
func (f *fifo[T]) Remove(i int) T {
	var zero T
	idx := f.head + i
	v := f.buf[idx]
	copy(f.buf[idx:], f.buf[idx+1:])
	f.buf[len(f.buf)-1] = zero
	f.buf = f.buf[:len(f.buf)-1]
	return v
}

// Reset empties the queue, keeping the buffer for reuse.
func (f *fifo[T]) Reset() {
	clear(f.buf)
	f.buf = f.buf[:0]
	f.head = 0
}

// swapRemove deletes q[i] in O(1) by moving the last element into its place.
// Used for the issue and load-store queues, whose storage order is
// irrelevant: issue selection orders candidates by the explicit
// (section position, ordinal) comparison, never by queue position.
func swapRemove(q *[]*DynInst, i int) {
	s := *q
	last := len(s) - 1
	s[i] = s[last]
	s[last] = nil
	*q = s[:last]
}

// -------------------------------------------------------------- bitset ----

// bitset is a set of core indices, one bit each: the scheduler's armed cores
// and the buckets of the host index. Iterating with next visits the members
// in ascending order, 64 absent cores per word skipped.
type bitset []uint64

func (b bitset) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) unset(i int) { b[i>>6] &^= 1 << (i & 63) }

// next returns the smallest member >= from, or -1. It reads the set as it is
// now, so a loop `for i := b.next(0); i >= 0; i = b.next(i + 1)` also visits
// members added above i while it runs.
func (b bitset) next(from int) int {
	w := from >> 6
	if w >= len(b) {
		return -1
	}
	if x := b[w] >> (from & 63); x != 0 {
		return from + bits.TrailingZeros64(x)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// ----------------------------------------------------------- host index ----

// hostIndex keeps the cores indexed by load for the host chooser: bucket l
// is the set of cores hosting exactly l live sections, pop[l] its size.
// Machine.setLive moves a core between buckets wherever Core.live changes,
// so choosing a host reads a few words instead of every core's load. The
// buckets share one backing array, grown as loads are first reached and kept
// across Reset and bind.
type hostIndex struct {
	words int      // words per bucket
	bits  []uint64 // bucket l is bits[l*words : (l+1)*words]
	pop   []int
	min   int // no bucket below min has members; pick advances it lazily
}

// reset puts all of cores cores in bucket 0.
func (h *hostIndex) reset(cores int) {
	h.words = (cores + 63) >> 6
	clear(h.bits[:cap(h.bits)])
	clear(h.pop[:cap(h.pop)])
	h.bits, h.pop, h.min = resized(h.bits, h.words), resized(h.pop, 1), 0
	for i := range h.bits {
		h.bits[i] = ^uint64(0)
	}
	if r := cores & 63; r != 0 {
		h.bits[h.words-1] = 1<<r - 1
	}
	h.pop[0] = cores
}

func (h *hostIndex) bucket(l int) bitset { return bitset(h.bits[l*h.words : (l+1)*h.words]) }

// move takes core from bucket from to bucket to.
func (h *hostIndex) move(core, from, to int) {
	if to >= len(h.pop) {
		h.bits, h.pop = resized(h.bits, (to+1)*h.words), resized(h.pop, to+1)
	}
	h.bucket(from).unset(core)
	h.pop[from]--
	h.bucket(to).set(core)
	h.pop[to]++
	if to < h.min {
		h.min = to
	}
}

// pick returns the core Machine.scanHost would choose, with the same meaning
// of rr (where the round-robin search starts) and limit (the packing cap, 0
// to spread): the first member, cyclically from rr, of the fullest bucket
// below limit, or of the emptiest bucket when there is none.
func (h *hostIndex) pick(rr, limit int) int {
	l := -1
	for k := min(limit, len(h.pop)) - 1; k >= h.min; k-- {
		if h.pop[k] > 0 {
			l = k
			break
		}
	}
	if l < 0 {
		for h.pop[h.min] == 0 {
			h.min++
		}
		l = h.min
	}
	b := h.bucket(l)
	if i := b.next(rr); i >= 0 {
		return i
	}
	return b.next(0)
}

// -------------------------------------------------------------- arenas ----

// dynChunk is the DynInst arena's growth step: one allocation per chunk while
// the arena grows, zero once it has reached the run's un-retired window.
const dynChunk = 128

// arena hands out T objects from reusable chunks. Handed-out objects are
// always zero, but the scrubbing happens in bulk — fresh chunks come zeroed
// from make, and reset clears the used prefix wholesale — not per alloc.
// The arena itself never takes an object back before Machine.Reset rewinds
// it as a whole. It holds DynInsts: one has exactly one owner at a time and is
// dead once it retires, so the machine keeps a free list in front of this
// arena (newDyn, recycle) and the arena's high-water mark is the run's
// largest un-retired window. Cells, which several places name at once, are
// held by handle instead (newCell).
type arena[T any] struct {
	chunks   [][]T
	chunk    int
	ci, used int
}

func newArena[T any](chunk int) arena[T] { return arena[T]{chunk: chunk} }

func (a *arena[T]) alloc() *T {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, a.chunk))
	}
	p := &a.chunks[a.ci][a.used]
	a.used++
	if a.used == a.chunk {
		a.ci++
		a.used = 0
	}
	return p
}

func (a *arena[T]) reset() {
	for i := 0; i <= a.ci && i < len(a.chunks); i++ {
		clear(a.chunks[i])
	}
	a.ci, a.used = 0, 0
}

// allocated is the number of objects handed out since the last reset.
func (a *arena[T]) allocated() int { return a.ci*a.chunk + a.used }

// trim releases the chunks past the first keep to the GC. The arena must
// have been reset.
func (a *arena[T]) trim(keep int) {
	if len(a.chunks) > keep {
		clear(a.chunks[keep:])
		a.chunks = a.chunks[:keep]
	}
}

// newDyn returns a zeroed DynInst: the latest retired one, or a new one from
// the arena when every instruction handed out so far is still in flight.
func (m *Machine) newDyn() *DynInst {
	d := m.dynFree
	if d == nil {
		return m.dyns.alloc()
	}
	m.dynFree, d.secNext = d.secNext, nil
	return d
}

// recycle takes back a retired instruction, scrubbed, and lets go of the
// cells whose alias-table names it took over at rename (DynInst.prev). Under
// the tests' poison switch it is overwritten with absurd values and never
// handed out again, so that a read of a retired instruction changes the run
// instead of finding the stale but plausible values a recycled object would
// still hold.
func (m *Machine) recycle(d *DynInst) {
	for _, h := range d.prev[:d.nwr] {
		if h != 0 {
			m.unname(h)
		}
	}
	if d.prevMem != 0 {
		m.unname(d.prevMem)
	}
	if m.poison {
		*d = poisoned
		return
	}
	*d = DynInst{secNext: m.dynFree}
	m.dynFree = d
}

// poisoned is what a retired instruction looks like under Machine.poison:
// nil pointers, counts that index out of every array, timestamps far in the
// past of any wake computation and in the future of any strictly-older test.
var poisoned = DynInst{
	Idx: -1 << 30, IP: -1 << 30, Level: -1 << 20,
	class: 0xff, computedAtFetch: true, nsrcs: 0xff, nwr: 0xff,
	ewSrcIdx: 0xff, maSrcIdx: 0xff, addrSrcs: 0xff, pendingCopy: ^uint32(0),
	srcRegs: [maxSrcs]isa.Reg{0xff, 0xff, 0xff, 0xff}, wrRegs: [maxWr]isa.Reg{0xff, 0xff},
	addr: 0xdead_dead_dead_dead,
	tFD:  1 << 30, tRR: 1 << 30, tEW: 1 << 30, tAR: 1 << 30, tMA: 1 << 30,
	ewWakeAt: -1 << 30, maWakeAt: -1 << 30, ewSrcMax: 1 << 30, maSrcMax: 1 << 30,
}

// --------------------------------------------------------------- cells ----

// newCell returns the handle of a zero cell nothing names yet: the latest
// freed one, or a new one at the end of the arena. The caller names it.
func (m *Machine) newCell() cellID {
	h := m.cellFree
	if h == 0 {
		return m.appendCell()
	}
	c := &m.cells[h]
	m.cellFree = cellID(c.v)
	c.v = 0
	return h
}

// appendCell adds a cell at the end of the arena, doubling its room when it
// is full: append alone grows a large slice by a quarter at a time, and a run
// would allocate five times the arena it ends with instead of two.
func (m *Machine) appendCell() cellID {
	if len(m.cells) == cap(m.cells) {
		m.cells = slices.Grow(m.cells, len(m.cells))
		m.names = slices.Grow(m.names, len(m.names))
	}
	m.cells = append(m.cells, cell{})
	m.names = append(m.names, 0)
	return cellID(len(m.cells) - 1)
}

// unname records that one name of h was let go of (the zero handle names
// nothing); the last one frees the cell, which is the common case: most
// cells are named by one alias-table slot only. Nothing is parked on a cell
// nobody names: an unproduced cell is named by the slot its producer — the
// instruction or the request that fills it — renamed, until the producer has
// filled it, and filling wakes what waits. A count that goes below zero means
// a name was let go of twice, or a place named the cell without being
// counted; that faults the run (overReleased). Under poison, where a freed
// cell is never counted again, every such place shows.
func (m *Machine) unname(h cellID) {
	if h == 0 {
		return
	}
	switch n := m.names[h]; n {
	case 1:
		m.names[h] = 0
		m.freeCell(h)
	case 0:
		m.overReleased(h)
	default:
		m.names[h] = n - 1
	}
}

// overReleased faults the run: h was let go of more often than it was named.
func (m *Machine) overReleased(h cellID) {
	if m.err == nil {
		m.err = fmt.Errorf("machine: cell %d let go of more often than it was named", h)
	}
}

// freeCell puts an unnamed cell on the free list, scrubbed but for its value
// word, which links the list. Under the tests' poison switch it is
// overwritten with absurd values and never handed out again instead, as
// recycle does with a retired instruction: a read through a handle whose
// count was let down too early then changes the run.
func (m *Machine) freeCell(h cellID) {
	if m.poison {
		m.cells[h] = poisonedCell
		return
	}
	m.cells[h] = cell{v: uint64(m.cellFree)}
	m.cellFree = h
}

// poisonedCell is what a freed cell looks like under Machine.poison: a value
// no program computes, ready only in a cycle no run reaches.
var poisonedCell = cell{v: 0xdead_dead_dead_dead, at: 1 << 60}

// resetCells empties the cell arena for the next run, keeping its storage:
// every cell handed out is scrubbed, and cells[0] stands for the zero handle.
func (m *Machine) resetCells() {
	clear(m.cells)
	clear(m.names)
	m.cells, m.names = append(m.cells[:0], cell{}), append(m.names[:0], 0)
	m.cellFree = 0
}

// ---------------------------------------------------------------- maat ----

// maatMinSize is the smallest MAAT backing array, a power of two.
const maatMinSize = 16

// maat is the per-section Memory Address Alias Table: an open-addressed,
// linear-probing hash table from data addresses to producer cells, replacing
// the previous map. The backing array is recycled through the machine's free
// list when the owning section dumps (Machine.releaseMaat), so in steady
// state sections are born with a right-sized table and no per-section map
// allocation happens. An entry with the zero handle is empty.
//
// bloom is the table's presence word: bit b is set when some key whose hash
// has b in its top six bits was inserted (maatBit). A search step asks a
// section for a word it mostly does not hold, and a clear bit answers that
// from the section's header without a probe of entries. The word never has a
// false negative: maatPut sets the bit of every key it inserts (rehashing in
// maatGrow included), no single key is ever deleted, and the word is cleared
// only together with the whole table (acquireMaat, releaseMaat).
type maat struct {
	bloom   uint64
	entries []maatEntry
	n       int
	shift   uint8 // 64 - log2(len(entries)); index = hash >> shift
}

type maatEntry struct {
	key uint64
	p   cellID
	// store says a store of the section wrote the word — p is then the cell of
	// the latest one — rather than a load that missed and cached it. It is what
	// dumpOldest commits to the DMH.
	store bool
}

// maatHash is Fibonacci multiplicative hashing. Indexing uses the high bits
// (via the shift) — data addresses are mostly 8-byte aligned, so the low
// product bits carry no entropy.
func maatHash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 }

func maatShift(size int) uint8 { return uint8(64 - bits.TrailingZeros(uint(size))) }

// maatBit is a hash's bit in the presence word: its top six bits.
func maatBit(hash uint64) uint64 { return 1 << (hash >> 58) }

// get returns the producer cell stored for key, or the zero handle. An empty
// table has a zero presence word, so the one test covers it too.
func (t *maat) get(key uint64) cellID {
	hash := maatHash(key)
	if t.bloom&maatBit(hash) == 0 {
		return 0
	}
	i := hash >> t.shift
	for {
		e := &t.entries[i]
		if e.p == 0 {
			return 0
		}
		if e.key == key {
			return e.p
		}
		i++
		if i == uint64(len(t.entries)) {
			i = 0
		}
	}
}

// maatPut inserts or overwrites key's producer in t, growing through the
// machine's recycled backing arrays when the load factor passes 3/4, and
// returns the producer it overwrote (the zero handle if none). store marks
// the producer as a store's cell; a load only ever inserts.
func (m *Machine) maatPut(t *maat, key uint64, p cellID, store bool) cellID {
	if len(t.entries) == 0 || (t.n+1)*4 > len(t.entries)*3 {
		m.maatGrow(t)
	}
	hash := maatHash(key)
	i := hash >> t.shift
	for {
		e := &t.entries[i]
		if e.p == 0 {
			*e = maatEntry{p: p, key: key, store: store}
			t.n++
			t.bloom |= maatBit(hash)
			return 0
		}
		if e.key == key {
			old := e.p
			e.p, e.store = p, store
			return old
		}
		i++
		if i == uint64(len(t.entries)) {
			i = 0
		}
	}
}

// maatGrow doubles t's backing array (or installs the first one) and
// rehashes. The old array goes back to the free list for the next section.
func (m *Machine) maatGrow(t *maat) {
	want := maatMinSize
	if n := len(t.entries) * 2; n > want {
		want = n
	}
	old := t.entries
	t.entries = make([]maatEntry, want)
	t.shift = maatShift(want)
	t.n = 0
	for i := range old {
		if old[i].p != 0 {
			m.maatPut(t, old[i].key, old[i].p, old[i].store)
		}
	}
	if old != nil {
		clear(old)
		m.maatFree = append(m.maatFree, old)
	}
}

// acquireMaat equips t with a recycled backing array if one is available
// (already cleared at release time); otherwise the table stays empty until
// the first insert grows it.
func (m *Machine) acquireMaat(t *maat) {
	t.n, t.bloom = 0, 0
	if k := len(m.maatFree) - 1; k >= 0 {
		t.entries = m.maatFree[k]
		m.maatFree[k] = nil
		m.maatFree = m.maatFree[:k]
		t.shift = maatShift(len(t.entries))
	} else {
		t.entries = nil
		t.shift = 0
	}
}

// releaseMaat clears t and returns its backing array to the free list. Called
// when the owning section dumps — after that point no renaming request can
// search the section (a search ends at the oldest undumped section, and
// dumpOldest refuses to dump a section with requests still at it), so the
// table is dead.
func (m *Machine) releaseMaat(t *maat) {
	if t.entries == nil {
		return
	}
	clear(t.entries)
	m.maatFree = append(m.maatFree, t.entries)
	t.entries = nil
	t.n, t.bloom = 0, 0
	t.shift = 0
}

// --------------------------------------------------------------- pools ----

// acquireSection returns a recycled or fresh Section shell with a MAAT
// backing attached. A shell comes back when its section dumps (dropSection),
// its record already taken for the run's result, and the next fork reuses it
// first, so the shells a machine allocates follow the most sections a run
// has undumped at once, not how many it creates.
func (m *Machine) acquireSection() *Section {
	var s *Section
	if k := len(m.secFree) - 1; k >= 0 {
		s = m.secFree[k]
		m.secFree[k] = nil
		m.secFree = m.secFree[:k]
	} else {
		s = &Section{}
	}
	m.acquireMaat(&s.maat)
	return s
}

// releaseSection scrubs s and pools it, keeping the address-rename queue's
// capacity for reuse.
func (m *Machine) releaseSection(s *Section) {
	m.releaseMaat(&s.maat)
	arQ := s.arQ
	arQ.Reset()
	*s = Section{arQ: arQ}
	m.secFree = append(m.secFree, s)
}

// dropSection takes back the shell of a section that has just dumped. Under
// the tests' poison switch it is overwritten with absurd values and never
// handed out again instead, as recycle does with a retired instruction: a
// reference to a section that outlived its dump then changes the run.
func (m *Machine) dropSection(s *Section) {
	if m.poison {
		m.releaseMaat(&s.maat)
		*s = poisonedSection
		return
	}
	m.releaseSection(s)
}

// poisonedSection is what a dumped section looks like under Machine.poison:
// a position before every live one, a core no chip has, and counts that
// index out of every array.
var poisonedSection = Section{
	Pos: -1 << 40, Core: -1 << 20, BaseLevel: -1 << 20, ID: -1 << 40,
	fetched: -1 << 40, renamed: -1 << 40, memOps: -1 << 40, memRen: -1 << 40,
	nreqs: -1 << 40, retired: -1 << 40, fetchDone: true,
	resumeAt: -1 << 40, resumeIP: -1 << 40, startIP: -1 << 40, fetchIP: -1 << 40,
}

// newRequest returns a pooled or fresh renaming request.
func (m *Machine) newRequest() *request {
	if k := len(m.reqFree) - 1; k >= 0 {
		r := m.reqFree[k]
		m.reqFree[k] = nil
		m.reqFree = m.reqFree[:k]
		return r
	}
	r := &request{}
	m.reqAll = append(m.reqAll, r)
	return r
}

// releaseRequest scrubs r (dropping its section and slot references) and
// pools it.
func (m *Machine) releaseRequest(r *request) {
	*r = request{}
	m.reqFree = append(m.reqFree, r)
}
