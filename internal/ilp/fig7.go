package ilp

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// fig7Row is one memory word's row of Fig7's renaming table: what each model
// remembers of it. The parallel model renames memory, so it never waits on a
// read and keeps none. Cycles start at 1, so a zero cycle means "none".
type fig7Row struct {
	seqWrite int64 // sequential: cycle the last write's value is ready
	seqRead  int64 // sequential: max cycle of the reads since the last write
	parWrite int64 // parallel: cycle the last write's value is ready
}

// Fig7 is Analyzer under Sequential() and under Parallel() at once: each
// record's register sets are read and each touched word is looked up once
// for both schedules. Both models rename registers and predict branches
// perfectly, so a register's row is its last write's cycle and no branch is
// remembered; the parallel model's rsp row stays zero, so rsp constrains
// nothing under it. Its Results are exactly those of the two Analyzers.
type Fig7 struct {
	n                    int64 // records stepped
	seqRegs, parRegs     [isa.NumRegs]int64
	mem                  memTable[fig7Row]
	seqCycles, parCycles int64 // each schedule's length as it stands
}

// NewFig7 returns both analyses of the empty trace.
func NewFig7() *Fig7 {
	return &Fig7{mem: newMemTable[fig7Row]()}
}

// Step schedules the next dynamic instructions of the trace, the records of
// rs in order, under both models. The records are read, not kept. How a trace
// is cut into slices changes nothing.
func (a *Fig7) Step(rs []trace.Record) {
	a.n += int64(len(rs))
	// The schedules' lengths stay in locals across the slice: the stores
	// into the register and memory rows could alias them in a.
	seqCycles, parCycles := a.seqCycles, a.parCycles
	for i := range rs {
		r := &rs[i]
		var seqReady, parReady int64 // executes at ready+1
		for _, reg := range r.RegReads() {
			seqReady = max(seqReady, a.seqRegs[reg])
			parReady = max(parReady, a.parRegs[reg])
		}
		var load, store *fig7Row
		if r.HasLoad {
			load = a.mem.at(r.Load)
			seqReady = max(seqReady, load.seqWrite)
			parReady = max(parReady, load.parWrite)
		}
		if r.HasStore {
			store = a.mem.at(r.Store)
			seqReady = max(seqReady, store.seqWrite, store.seqRead) // WAW, WAR
		}
		seq, par := seqReady+1, parReady+1
		seqCycles = max(seqCycles, seq)
		parCycles = max(parCycles, par)

		// Reads before writes, as in Analyzer.Step: an instruction loading
		// and storing one address leaves it written and unread.
		for _, reg := range r.RegWrites() {
			a.seqRegs[reg] = seq
			a.parRegs[reg] = par
		}
		a.parRegs[isa.RSP] = 0
		if load != nil {
			load.seqRead = max(load.seqRead, seq)
		}
		if store != nil {
			*store = fig7Row{seqWrite: seq, parWrite: par}
		}
	}
	a.seqCycles, a.parCycles = seqCycles, parCycles
}

// Results returns the analyses of the records stepped so far, as
// NewAnalyzer(Sequential()) and NewAnalyzer(Parallel()) would report them.
func (a *Fig7) Results() (seq, par Result) {
	return a.result(Sequential(), a.seqCycles), a.result(Parallel(), a.parCycles)
}

func (a *Fig7) result(m Model, cycles int64) Result {
	res := Result{Model: m, Instructions: int(a.n), Cycles: cycles}
	if a.n > 0 {
		res.ILP = float64(res.Instructions) / float64(cycles)
	}
	return res
}
