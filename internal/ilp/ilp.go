// Package ilp implements the trace-level instruction-level-parallelism limit
// analyses used by the paper's Section 3 (Fig. 7) and by the related-work
// models it cites (Tjaden–Flynn windows, Wall's "good"/"perfect" machines).
//
// A dependence Model selects which dynamic dependences constrain execution.
// Given a trace, Analyze schedules every instruction at the cycle after its
// last constraining producer (unit latency, unlimited functional units unless
// a window/issue limit is configured) and reports ILP = instructions/cycles.
//
// The two models the paper plots in Fig. 7:
//
//   - Sequential(): "all the dependencies excluding the register false ones
//     (WAR and WAW), assuming an unlimited register renaming capacity, and
//     excluding the control flow ones, assuming perfect branch prediction"
//     — i.e. register RAW + all memory dependences (true and false) +
//     stack-pointer dependences.
//   - Parallel(): "the trace is available when the run starts (no fetch
//     delay) and in the same time all the destinations (including memory)
//     are renamed. The stack pointer dependencies are not considered."
//     — i.e. register RAW + memory RAW only, no rsp dependences.
package ilp

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Model selects the dependences and resources of an ILP limit study.
type Model struct {
	Name string

	// RenameRegisters drops register WAR/WAW dependences (infinite renaming).
	RenameRegisters bool
	// RenameMemory drops memory WAR/WAW dependences (the paper's run-time
	// single-assignment form).
	RenameMemory bool
	// IgnoreStackPointer drops every dependence carried through rsp
	// (the paper's parallel model; see also Postiff et al. and
	// Goossens–Parello 2013 on stack-induced parasitic dependences).
	IgnoreStackPointer bool
	// PerfectBranchPrediction drops control dependences entirely. When
	// false, every instruction additionally depends on the closest
	// preceding conditional branch (control is resolved before younger
	// instructions execute).
	PerfectBranchPrediction bool

	// WindowSize, when non-zero, bounds the in-flight instructions: an
	// instruction may only issue when fewer than WindowSize older
	// instructions are incomplete (ROB-style in-order window advance).
	WindowSize int
	// IssueWidth, when non-zero, bounds instructions issued per cycle.
	IssueWidth int
}

// Sequential returns the paper's sequential-run model (Fig. 7 "seq11" bar):
// the ultimate performance of an out-of-order speculative processor.
func Sequential() Model {
	return Model{
		Name:                    "sequential",
		RenameRegisters:         true,
		RenameMemory:            false,
		IgnoreStackPointer:      false,
		PerfectBranchPrediction: true,
	}
}

// Parallel returns the paper's parallel-run model (Fig. 7 numbered bars):
// the ultimate performance of the proposed distributed execution model.
func Parallel() Model {
	return Model{
		Name:                    "parallel",
		RenameRegisters:         true,
		RenameMemory:            true,
		IgnoreStackPointer:      true,
		PerfectBranchPrediction: true,
	}
}

// TjadenFlynn returns the 1970 Tjaden–Flynn model: a 10-instruction window
// with no register renaming and unresolved control flow.
func TjadenFlynn() Model {
	return Model{
		Name:       "tjaden-flynn-10",
		WindowSize: 10,
	}
}

// WallGood approximates Wall's 1991 "good" model: a 2K-instruction window,
// 64-wide issue, register renaming and (here) perfect branch prediction and
// perfect alias detection.
func WallGood() Model {
	return Model{
		Name:                    "wall-good",
		RenameRegisters:         true,
		RenameMemory:            false,
		PerfectBranchPrediction: true,
		WindowSize:              2048,
		IssueWidth:              64,
	}
}

// WallPerfect approximates Wall's "perfect" model: infinite window and
// issue, infinite renaming, perfect prediction (memory false dependences
// still honoured, as in the original study's perfect-alias configuration).
func WallPerfect() Model {
	return Model{
		Name:                    "wall-perfect",
		RenameRegisters:         true,
		RenameMemory:            false,
		PerfectBranchPrediction: true,
	}
}

// DistanceBuckets is the number of log2 buckets in the dependence distance
// histogram (bucket k counts critical dependences of distance [2^k, 2^(k+1))).
const DistanceBuckets = 32

// Result reports one analysis.
type Result struct {
	Model        Model
	Instructions int
	Cycles       int64
	ILP          float64
	// MaxParallelism is the largest number of instructions scheduled in
	// any single cycle.
	MaxParallelism int64
	// DistanceHist[k] counts instructions whose *critical* (latest)
	// producer is 2^k..2^(k+1)-1 dynamic instructions away. Instructions
	// with no producer are not counted.
	DistanceHist [DistanceBuckets]int64
}

// String formats the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d instructions, %d cycles, ILP %.1f",
		r.Model.Name, r.Instructions, r.Cycles, r.ILP)
}

// MeanCriticalDistance returns the average distance (in dynamic
// instructions) of each instruction's critical producer.
func (r Result) MeanCriticalDistance() float64 {
	var n, sum float64
	for k, c := range r.DistanceHist {
		// Bucket midpoint approximation.
		mid := float64(uint64(1)<<uint(k)) * 1.5
		if k == 0 {
			mid = 1
		}
		n += float64(c)
		sum += float64(c) * mid
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Analyze schedules the trace under the model and returns the result. An
// unbounded model is an Analyzer fed the stored trace record by record.
func Analyze(t *trace.Trace, m Model) Result {
	if m.WindowSize > 0 || m.IssueWidth > 0 {
		return analyzeWindowed(t, m)
	}
	a := NewAnalyzer(m)
	for i := range t.Records {
		a.Step(&t.Records[i])
	}
	return a.Result()
}

// producer is one row of the renaming table: who last produced a location
// and who has read it since. Cycles start at 1, so a zero cycle means "none".
type producer struct {
	write  int64 // cycle the last write's value is ready
	writer int64 // trace index of the last writer, meaningful when write != 0
	read   int64 // max cycle of the reads since the last write
}

// Analyzer is the infinite-window dataflow limit as a running value: each
// record it is stepped through executes at the cycle after its last
// constraining producer. What it remembers is the paper's renaming table —
// the last producer of each register and of each memory word touched — and
// how many instructions it scheduled in each cycle; never the trace. Fed from
// the emulator's hook it analyses a run as it happens.
type Analyzer struct {
	n          int64 // records stepped; the next record's trace index
	regs       [isa.NumRegs]producer
	mem        memTable
	lastBranch int64    // completion cycle of the last control instruction
	perCycle   []uint32 // instructions scheduled in each cycle
	res        Result   // Model; Cycles, MaxParallelism, DistanceHist as they stand
}

// NewAnalyzer returns an analysis of the empty trace under an unbounded
// model. A window or an issue width needs the whole trace at once (Analyze).
func NewAnalyzer(m Model) *Analyzer {
	if m.WindowSize > 0 || m.IssueWidth > 0 {
		panic("ilp: an Analyzer has no window: use Analyze for " + m.Name)
	}
	return &Analyzer{
		res: Result{Model: m},
		mem: memTable{pages: make(map[uint64]*memPage), unaligned: make(map[uint64]*producer)},
	}
}

// Step schedules the next dynamic instruction of the trace. The record is
// read, not kept.
func (a *Analyzer) Step(r *trace.Record) {
	m := &a.res.Model
	idx := a.n
	a.n++
	ready := int64(0) // executes at ready+1
	criticalProducer := int64(-1)

	consider := func(cycle, producerIdx int64) {
		if cycle > ready {
			ready = cycle
			criticalProducer = producerIdx
		}
	}

	var load, store *producer
	for _, reg := range r.RegReads() {
		if m.IgnoreStackPointer && reg == isa.RSP {
			continue
		}
		if p := &a.regs[reg]; p.write != 0 {
			consider(p.write, p.writer)
		}
	}
	if r.HasLoad {
		load = a.mem.at(r.Load)
		if load.write != 0 {
			consider(load.write, load.writer)
		}
	}
	if !m.RenameRegisters {
		for _, reg := range r.RegWrites() {
			if m.IgnoreStackPointer && reg == isa.RSP {
				continue
			}
			p := &a.regs[reg]
			if p.write != 0 {
				consider(p.write, p.writer) // WAW
			}
			if p.read != 0 {
				consider(p.read, -1) // WAR (producer index untracked)
			}
		}
	}
	if r.HasStore {
		store = a.mem.at(r.Store)
		if !m.RenameMemory {
			if store.write != 0 {
				consider(store.write, store.writer) // WAW
			}
			if store.read != 0 {
				consider(store.read, -1) // WAR
			}
		}
	}
	if !m.PerfectBranchPrediction && a.lastBranch > 0 {
		consider(a.lastBranch, -1)
	}

	cycle := ready + 1
	if cycle >= int64(len(a.perCycle)) {
		// A cycle is at most one past the latest so far: doubling suffices.
		grown := make([]uint32, max(2*len(a.perCycle), 1024))
		copy(grown, a.perCycle)
		a.perCycle = grown
	}
	a.perCycle[cycle]++
	if c := int64(a.perCycle[cycle]); c > a.res.MaxParallelism {
		a.res.MaxParallelism = c
	}
	if cycle > a.res.Cycles {
		a.res.Cycles = cycle
	}
	if criticalProducer >= 0 {
		d := idx - criticalProducer // at least 1: a producer is an earlier record
		b := bits.Len64(uint64(d)) - 1
		if b >= DistanceBuckets {
			b = DistanceBuckets - 1
		}
		a.res.DistanceHist[b]++
	}

	// Update producer state: reads before writes, so that an instruction
	// loading and storing one address leaves it written and unread.
	for _, reg := range r.RegReads() {
		if p := &a.regs[reg]; cycle > p.read {
			p.read = cycle
		}
	}
	for _, reg := range r.RegWrites() {
		a.regs[reg] = producer{write: cycle, writer: idx}
	}
	if load != nil && cycle > load.read {
		load.read = cycle
	}
	if store != nil {
		*store = producer{write: cycle, writer: idx}
	}
	if r.IsControl() {
		a.lastBranch = cycle
	}
}

// Result returns the analysis of the records stepped so far.
func (a *Analyzer) Result() Result {
	res := a.res
	res.Instructions = int(a.n)
	if a.n > 0 {
		res.ILP = float64(res.Instructions) / float64(res.Cycles)
	}
	return res
}

// memTable is the memory half of the renaming table: a flat array of
// producers per page of word addresses, so that the common access — an
// aligned word on the page touched last — is an index, not a hash.
type memTable struct {
	lastPage uint64 // page number of last, valid when last != nil
	last     *memPage
	pages    map[uint64]*memPage
	// unaligned holds the addresses that are not 8-byte aligned: every
	// address is its own location, whatever it overlaps.
	unaligned map[uint64]*producer
}

const memPageBits = 9 // words per page: 512 × 24 B = 12 KiB

type memPage [1 << memPageBits]producer

// at returns the row of an address, absent rows reading as zero.
func (t *memTable) at(addr uint64) *producer {
	if addr&7 != 0 {
		p := t.unaligned[addr]
		if p == nil {
			p = new(producer)
			t.unaligned[addr] = p
		}
		return p
	}
	word := addr >> 3
	pn := word >> memPageBits
	if t.last == nil || t.lastPage != pn {
		pg := t.pages[pn]
		if pg == nil {
			pg = new(memPage)
			t.pages[pn] = pg
		}
		t.lastPage, t.last = pn, pg
	}
	return &t.last[word&(1<<memPageBits-1)]
}

// analyzeWindowed simulates a finite window and/or issue width. Instructions
// enter a ROB-like window in trace order; each cycle, up to IssueWidth ready
// instructions execute (oldest first); the window head advances over
// completed instructions.
func analyzeWindowed(t *trace.Trace, m Model) Result {
	res := Result{Model: m, Instructions: t.Len()}
	n := t.Len()
	if n == 0 {
		return res
	}
	w := m.WindowSize
	if w <= 0 {
		w = n
	}
	iw := m.IssueWidth
	if iw <= 0 {
		iw = n
	}

	// Pre-compute each instruction's ready constraint as a set of producer
	// indices (we keep only the per-location last producers, as above, but
	// store indices so the scheduler can test completion).
	deps := make([][]int32, n)
	var regWriteIx [isa.NumRegs]int64 // trace index of the last writer, -1 if none
	for i := range regWriteIx {
		regWriteIx[i] = -1
	}
	memWriteIx := make(map[uint64]int64)
	var lastBranch int64 = -1
	regReadIx := [isa.NumRegs][]int32{}
	memReadIx := make(map[uint64][]int32)

	for i := range t.Records {
		r := &t.Records[i]
		var d []int32
		add := func(ix int64) {
			if ix >= 0 {
				d = append(d, int32(ix))
			}
		}
		for _, reg := range r.RegReads() {
			if m.IgnoreStackPointer && reg == isa.RSP {
				continue
			}
			add(regWriteIx[reg])
		}
		if r.HasLoad {
			if ix, ok := memWriteIx[r.Load]; ok {
				add(ix)
			}
		}
		if !m.RenameRegisters {
			for _, reg := range r.RegWrites() {
				if m.IgnoreStackPointer && reg == isa.RSP {
					continue
				}
				add(regWriteIx[reg])
				d = append(d, regReadIx[reg]...)
			}
		}
		if !m.RenameMemory && r.HasStore {
			if ix, ok := memWriteIx[r.Store]; ok {
				add(ix)
			}
			d = append(d, memReadIx[r.Store]...)
		}
		if !m.PerfectBranchPrediction {
			add(lastBranch)
		}
		deps[i] = d

		for _, reg := range r.RegReads() {
			regReadIx[reg] = append(regReadIx[reg], int32(i))
		}
		for _, reg := range r.RegWrites() {
			regWriteIx[reg] = int64(i)
			regReadIx[reg] = regReadIx[reg][:0]
		}
		if r.HasLoad {
			memReadIx[r.Load] = append(memReadIx[r.Load], int32(i))
		}
		if r.HasStore {
			memWriteIx[r.Store] = int64(i)
			delete(memReadIx, r.Store)
		}
		if r.IsControl() {
			lastBranch = int64(i)
		}
	}

	// Cycle-stepped schedule.
	done := make([]int64, n) // completion cycle, 0 = not done
	head := 0                // oldest instruction not yet completed-and-retired
	tail := 0                // first instruction not yet in window
	var cycle int64
	var maxPar int64
	remaining := n
	for remaining > 0 {
		cycle++
		// Admit instructions into the window.
		for tail < n && tail-head < w {
			tail++
		}
		issued := int64(0)
		for i := head; i < tail && issued < int64(iw); i++ {
			if done[i] != 0 {
				continue
			}
			ok := true
			for _, p := range deps[i] {
				if done[p] == 0 || done[p] >= cycle {
					ok = false
					break
				}
			}
			if ok {
				done[i] = cycle
				issued++
				remaining--
			}
		}
		if issued > maxPar {
			maxPar = issued
		}
		// Advance the head over completed instructions.
		for head < n && done[head] != 0 && done[head] <= cycle {
			head++
		}
		if issued == 0 && head == n {
			break
		}
	}
	res.Cycles = cycle
	res.ILP = float64(n) / float64(cycle)
	res.MaxParallelism = maxPar
	return res
}
