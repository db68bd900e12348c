package machine

import "math/bits"

// This file holds the allocation-free plumbing behind the simulated hot
// path: the generic sliding-window FIFO backing the per-core queues, the
// bitset behind the scheduler's armed cores and the host chooser's index of
// cores by load, the arenas that pool DynInst and cell objects (and the free
// list that recycles a DynInst the cycle it retires), the open-addressed
// memory address alias table recycled through a per-machine free list, and
// the request/section pools. A profile of the previous implementation showed
// ~205k heap allocations per quickSort simulation — a fresh *DynInst per
// dynamic instruction, a map per rename/execute evaluation, interface boxing
// on every alias-table insert — with the GC charging every simulated cycle.
// Steady-state simulation on a warmed machine (see Machine.Reset) now
// allocates nothing per cycle; the regression tests in internal/bench pin
// that property.

// ---------------------------------------------------------------- fifo ----

// fifo is a first-in-first-out queue backed by a sliding window over one
// reusable buffer: Pop advances a head index instead of re-slicing away the
// front (which leaks capacity and forces append to reallocate), and the
// dead front region is compacted amortized O(1). The zero value is ready to
// use.
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

// Arena chunk sizes: one allocation per chunk while the arena grows, zero
// once it has reached the workload's footprint.
const (
	dynChunk  = 128  // DynInst objects (one per un-retired instruction)
	cellChunk = 1024 // renaming cells (1.7 per dynamic instruction)
)

// arena hands out T objects from reusable chunks. Handed-out objects are
// always zero, but the scrubbing happens in bulk — fresh chunks come zeroed
// from make, and reset clears the used prefix wholesale — not per alloc.
// The arena itself never takes an object back before Machine.Reset rewinds
// it as a whole. That is the whole story for cells, which anything may point
// at for the rest of the run (alias tables, consumers, fork copies that
// outlive their section). A DynInst has exactly one owner at a time and is
// dead once it retires, so the machine keeps a free list in front of this
// arena (newDyn, recycle) and the arena's high-water mark is the run's
// largest un-retired window.
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

// recycle takes back a retired instruction, scrubbed. Under the tests' poison
// switch it is overwritten with absurd values and never handed out again, so
// that a read of a retired instruction changes the run instead of finding the
// stale but plausible values a recycled object would still hold.
func (m *Machine) recycle(d *DynInst) {
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
	Idx: -1 << 40, IP: -1 << 40, Level: -1 << 20,
	class: 0xff, computedAtFetch: true, nsrcs: 0xff, nwr: 0xff,
	nPending: 0xff, ewSrcIdx: 0xff, maSrcIdx: 0xff,
	addr: 0xdead_dead_dead_dead,
	tFD:  1 << 60, tRR: 1 << 60, tEW: 1 << 60, tAR: 1 << 60, tMA: 1 << 60,
	ewWakeAt: -1 << 60, maWakeAt: -1 << 60, ewSrcMax: 1 << 60, maSrcMax: 1 << 60,
}

// ---------------------------------------------------------------- maat ----

// maatMinSize is the smallest MAAT backing array, a power of two.
const maatMinSize = 16

// maat is the per-section Memory Address Alias Table: an open-addressed,
// linear-probing hash table from data addresses to producer cells, replacing
// the previous map. The backing array is recycled through the machine's free
// list when the owning section dumps (Machine.releaseMaat), so in steady
// state sections are born with a right-sized table and no per-section map
// allocation happens. An entry with a nil cell is empty.
type maat struct {
	entries []maatEntry
	n       int
	shift   uint8 // 64 - log2(len(entries)); index = hash >> shift
}

type maatEntry struct {
	p   *cell
	key uint64
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

// get returns the producer cell stored for key, or nil.
func (t *maat) get(key uint64) *cell {
	if t.n == 0 {
		return nil
	}
	i := maatHash(key) >> t.shift
	for {
		e := &t.entries[i]
		if e.p == nil {
			return nil
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

// maatPut inserts or overwrites key's producer in s's table, growing through
// the machine's recycled backing arrays when the load factor passes 3/4.
// store marks the producer as a store's cell; a load only ever inserts.
func (m *Machine) maatPut(t *maat, key uint64, p *cell, store bool) {
	if len(t.entries) == 0 || (t.n+1)*4 > len(t.entries)*3 {
		m.maatGrow(t)
	}
	i := maatHash(key) >> t.shift
	for {
		e := &t.entries[i]
		if e.p == nil {
			*e = maatEntry{p: p, key: key, store: store}
			t.n++
			return
		}
		if e.key == key {
			e.p, e.store = p, store
			return
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
		if old[i].p != nil {
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
	t.n = 0
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
// search the section (searchTarget skips dumped sections, and dumpOldest
// refuses to dump a section with requests still at it), so the table is dead.
func (m *Machine) releaseMaat(t *maat) {
	if t.entries == nil {
		return
	}
	clear(t.entries)
	m.maatFree = append(m.maatFree, t.entries)
	t.entries = nil
	t.n = 0
	t.shift = 0
}

// --------------------------------------------------------------- pools ----

// acquireSection returns a recycled or fresh Section shell with a MAAT
// backing attached. Shells are recycled only by Machine.Reset: a dumped
// section keeps its place in Machine.order (positions index it) and its
// counts, which the final Result lists for every section of the run. What a
// section no longer needs goes earlier — its instructions as they retire, its
// MAAT backing when it dumps.
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
