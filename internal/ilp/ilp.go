// Package ilp implements the trace-level instruction-level-parallelism limit
// analysis of the paper's Section 3 (Fig. 7).
//
// A dependence Model selects which dynamic dependences constrain execution.
// An analysis, stepped one record at a time as the emulator produces the
// trace, schedules every instruction at the cycle after its last constraining
// producer (unit latency, unlimited window and functional units: "the trace
// is available when the run starts") and reports ILP = instructions/cycles.
// Fig. 7 stores no trace.
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
//
// Fig7 steps both in one pass over each record, with one renaming table
// whose rows hold both models' state; it is what Fig. 7 runs. Analyzer
// steps any one Model, flag by flag: it is the reference Fig7 is tested
// against, and the body of Analyze.
package ilp

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// Model selects the dependences of an ILP limit study.
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

// Result reports one analysis.
type Result struct {
	Model        Model
	Instructions int
	Cycles       int64
	ILP          float64
}

// Analyze feeds a stored trace to an Analyzer, record by record. Nothing in
// the repository stores a trace for Fig. 7; this is the entry point of the
// tests' references and of benchmark/'s stored-trace replay.
func Analyze(t *trace.Trace, m Model) Result {
	a := NewAnalyzer(m)
	for i := range t.Records {
		a.Step(&t.Records[i])
	}
	return a.Result()
}

// producer is one row of the renaming table: when a location was last written
// and read. Cycles start at 1, so a zero cycle means "none".
type producer struct {
	write int64 // cycle the last write's value is ready
	read  int64 // max cycle of the reads since the last write
}

// Analyzer is the infinite-window dataflow limit as a running value: each
// record it is stepped through executes at the cycle after its last
// constraining producer. What it remembers is the paper's renaming table —
// the last producer of each register and of each memory word touched — and
// never the trace. Fed as the emulator runs it analyses a run as it
// happens.
type Analyzer struct {
	n          int64 // records stepped
	regs       [isa.NumRegs]producer
	mem        memTable[producer]
	lastBranch int64  // completion cycle of the last control instruction
	res        Result // Model; Cycles as it stands
}

// NewAnalyzer returns an analysis of the empty trace under m.
func NewAnalyzer(m Model) *Analyzer {
	return &Analyzer{
		res: Result{Model: m},
		mem: newMemTable[producer](),
	}
}

// Step schedules the next dynamic instruction of the trace. The record is
// read, not kept.
func (a *Analyzer) Step(r *trace.Record) {
	m := &a.res.Model
	a.n++
	ready := int64(0) // executes at ready+1

	// Under IgnoreStackPointer rsp's row stays zero (below), so it constrains
	// nothing and needs no test here.
	var load, store *producer
	for _, reg := range r.RegReads() {
		ready = max(ready, a.regs[reg].write)
	}
	if r.HasLoad {
		load = a.mem.at(r.Load)
		ready = max(ready, load.write)
	}
	if !m.RenameRegisters {
		for _, reg := range r.RegWrites() {
			p := &a.regs[reg]
			ready = max(ready, p.write, p.read) // WAW, WAR
		}
	}
	if r.HasStore {
		store = a.mem.at(r.Store)
		if !m.RenameMemory {
			ready = max(ready, store.write, store.read) // WAW, WAR
		}
	}
	if !m.PerfectBranchPrediction {
		ready = max(ready, a.lastBranch)
	}

	cycle := ready + 1
	a.res.Cycles = max(a.res.Cycles, cycle)

	// Update producer state: reads before writes, so that an instruction
	// loading and storing one address leaves it written and unread. State is
	// recorded only where the model lets a later instruction wait on it; the
	// model is fixed for the analyser's life.
	if !m.RenameRegisters {
		for _, reg := range r.RegReads() {
			p := &a.regs[reg]
			p.read = max(p.read, cycle)
		}
	}
	for _, reg := range r.RegWrites() {
		a.regs[reg] = producer{write: cycle}
	}
	if m.IgnoreStackPointer {
		a.regs[isa.RSP] = producer{}
	}
	if load != nil && !m.RenameMemory {
		load.read = max(load.read, cycle)
	}
	if store != nil {
		*store = producer{write: cycle}
	}
	if !m.PerfectBranchPrediction && r.IsControl() {
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

// memTable is the memory half of a renaming table: a flat array of rows R per
// page of word addresses, so that the common access — an aligned word on the
// page touched last — is an index, not a hash.
type memTable[R any] struct {
	lastPage uint64 // page number of last, valid when last != nil
	last     *memPage[R]
	pages    map[uint64]*memPage[R]
	// unaligned holds the addresses that are not 8-byte aligned: every
	// address is its own location, whatever it overlaps.
	unaligned map[uint64]*R
}

// memPageBits is log2 of a page's words: 512 rows, 8 KiB of producers or
// 12 KiB of Fig7 rows.
const memPageBits = 9

type memPage[R any] [1 << memPageBits]R

func newMemTable[R any]() memTable[R] {
	return memTable[R]{pages: make(map[uint64]*memPage[R]), unaligned: make(map[uint64]*R)}
}

// at returns the row of an address, absent rows reading as zero.
func (t *memTable[R]) at(addr uint64) *R {
	if addr&7 != 0 {
		p := t.unaligned[addr]
		if p == nil {
			p = new(R)
			t.unaligned[addr] = p
		}
		return p
	}
	word := addr >> 3
	pn := word >> memPageBits
	if t.last == nil || t.lastPage != pn {
		pg := t.pages[pn]
		if pg == nil {
			pg = new(memPage[R])
			t.pages[pn] = pg
		}
		t.lastPage, t.last = pn, pg
	}
	return &t.last[word&(1<<memPageBits-1)]
}
