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

// Analyze schedules the trace under the model and returns the result.
func Analyze(t *trace.Trace, m Model) Result {
	if m.WindowSize > 0 || m.IssueWidth > 0 {
		return analyzeWindowed(t, m)
	}
	return analyzeUnbounded(t, m)
}

// depState tracks last writers and readers per location.
type depState struct {
	regWrite   [isa.NumRegs]int64 // cycle the last write's value is ready
	regWriteIx [isa.NumRegs]int64 // trace index of last writer, -1 if none
	regRead    [isa.NumRegs]int64 // max cycle of reads since last write
	memWrite   map[uint64]int64
	memWriteIx map[uint64]int64
	memRead    map[uint64]int64
}

func newDepState() *depState {
	s := &depState{
		memWrite:   make(map[uint64]int64),
		memWriteIx: make(map[uint64]int64),
		memRead:    make(map[uint64]int64),
	}
	for i := range s.regWriteIx {
		s.regWriteIx[i] = -1
	}
	return s
}

// analyzeUnbounded is the infinite-window dataflow limit: each instruction
// executes at the cycle after its last constraining producer.
func analyzeUnbounded(t *trace.Trace, m Model) Result {
	res := Result{Model: m, Instructions: t.Len()}
	if t.Len() == 0 {
		return res
	}
	s := newDepState()
	var lastBranchCycle int64 // completion cycle of the last control instr
	var maxCycle int64
	counts := make(map[int64]int64) // cycle -> instructions scheduled

	for i := range t.Records {
		r := &t.Records[i]
		idx := int64(i)
		ready := int64(0) // executes at ready+1
		criticalProducer := int64(-1)

		consider := func(cycle, producerIdx int64) {
			if cycle > ready {
				ready = cycle
				criticalProducer = producerIdx
			}
		}

		for _, reg := range r.RegReads() {
			if m.IgnoreStackPointer && reg == isa.RSP {
				continue
			}
			if ix := s.regWriteIx[reg]; ix >= 0 {
				consider(s.regWrite[reg], ix)
			}
		}
		if r.HasLoad {
			if w, ok := s.memWrite[r.Load]; ok {
				consider(w, s.memWriteIx[r.Load])
			}
		}
		if !m.RenameRegisters {
			for _, reg := range r.RegWrites() {
				if m.IgnoreStackPointer && reg == isa.RSP {
					continue
				}
				if ix := s.regWriteIx[reg]; ix >= 0 {
					consider(s.regWrite[reg], ix) // WAW
				}
				if rr := s.regRead[reg]; rr > 0 {
					consider(rr, -1) // WAR (producer index untracked)
				}
			}
		}
		if !m.RenameMemory && r.HasStore {
			if w, ok := s.memWrite[r.Store]; ok {
				consider(w, s.memWriteIx[r.Store]) // WAW
			}
			if rr, ok := s.memRead[r.Store]; ok {
				consider(rr, -1) // WAR
			}
		}
		if !m.PerfectBranchPrediction && lastBranchCycle > 0 {
			consider(lastBranchCycle, -1)
		}

		cycle := ready + 1
		counts[cycle]++
		if cycle > maxCycle {
			maxCycle = cycle
		}
		if criticalProducer >= 0 {
			d := idx - criticalProducer
			b := bits.Len64(uint64(d)) - 1
			if b < 0 {
				b = 0
			}
			if b >= DistanceBuckets {
				b = DistanceBuckets - 1
			}
			res.DistanceHist[b]++
		}

		// Update producer state.
		for _, reg := range r.RegReads() {
			if cycle > s.regRead[reg] {
				s.regRead[reg] = cycle
			}
		}
		for _, reg := range r.RegWrites() {
			s.regWrite[reg] = cycle
			s.regWriteIx[reg] = idx
			s.regRead[reg] = 0
		}
		if r.HasLoad && cycle > s.memRead[r.Load] {
			s.memRead[r.Load] = cycle
		}
		if r.HasStore {
			s.memWrite[r.Store] = cycle
			s.memWriteIx[r.Store] = idx
			delete(s.memRead, r.Store)
		}
		if r.IsControl() {
			lastBranchCycle = cycle
		}
	}
	res.Cycles = maxCycle
	res.ILP = float64(res.Instructions) / float64(maxCycle)
	for _, c := range counts {
		if c > res.MaxParallelism {
			res.MaxParallelism = c
		}
	}
	return res
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
	s := newDepState() // reuse maps for indices; cycles unused here
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
			add(s.regWriteIx[reg])
		}
		if r.HasLoad {
			if ix, ok := s.memWriteIx[r.Load]; ok {
				add(ix)
			}
		}
		if !m.RenameRegisters {
			for _, reg := range r.RegWrites() {
				if m.IgnoreStackPointer && reg == isa.RSP {
					continue
				}
				add(s.regWriteIx[reg])
				d = append(d, regReadIx[reg]...)
			}
		}
		if !m.RenameMemory && r.HasStore {
			if ix, ok := s.memWriteIx[r.Store]; ok {
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
			s.regWriteIx[reg] = int64(i)
			regReadIx[reg] = regReadIx[reg][:0]
		}
		if r.HasLoad {
			memReadIx[r.Load] = append(memReadIx[r.Load], int32(i))
		}
		if r.HasStore {
			s.memWriteIx[r.Store] = int64(i)
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
