package ilp

import (
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/trace"
)

func traceOf(t *testing.T, src string) *trace.Trace {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := emu.RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSerialChainILPIsOne(t *testing.T) {
	tr := traceOf(t, `
main:   movq $0, %rax
        addq $1, %rax
        addq $1, %rax
        addq $1, %rax
        addq $1, %rax
        addq $1, %rax
        addq $1, %rax
        addq $1, %rax
        hlt
`)
	r := Analyze(tr, Parallel())
	// movq;addq*7 form a chain of 8; hlt is independent.
	if r.Cycles != 8 {
		t.Errorf("cycles = %d, want 8", r.Cycles)
	}
	if r.ILP > 1.2 {
		t.Errorf("ILP = %.2f, want ~1", r.ILP)
	}
}

func TestIndependentInstructionsFullyParallel(t *testing.T) {
	tr := traceOf(t, `
main:   movq $1, %rax
        movq $2, %rbx
        movq $3, %rcx
        movq $4, %rdx
        movq $5, %rsi
        movq $6, %rdi
        movq $7, %r8
        movq $8, %r9
        hlt
`)
	r := Analyze(tr, Parallel())
	if r.Cycles != 1 {
		t.Errorf("cycles = %d, want 1 (all independent)", r.Cycles)
	}
	if r.MaxParallelism != 9 {
		t.Errorf("max parallelism = %d, want 9", r.MaxParallelism)
	}
}

func TestRegisterFalseDependences(t *testing.T) {
	// Four writes to rax with no RAW chain: with renaming they all issue in
	// cycle 1; without renaming WAW serialises them.
	tr := traceOf(t, `
main:   movq $1, %rax
        movq $2, %rax
        movq $3, %rax
        movq $4, %rax
        hlt
`)
	withRen := Analyze(tr, Parallel())
	noRen := Parallel()
	noRen.RenameRegisters = false
	without := Analyze(tr, noRen)
	if withRen.Cycles != 1 {
		t.Errorf("renamed cycles = %d, want 1", withRen.Cycles)
	}
	if without.Cycles != 4 {
		t.Errorf("unrenamed cycles = %d, want 4 (WAW chain)", without.Cycles)
	}
}

func TestMemoryFalseDependences(t *testing.T) {
	// Two independent store/load pairs reusing one memory word. The
	// sequential model (no memory renaming) serialises pair 2 after pair 1;
	// the parallel model overlaps them.
	src := `
main:   movq $1, %rax
        movq %rax, buf
        movq buf, %rbx
        movq $2, %rcx
        movq %rcx, buf
        movq buf, %rdx
        hlt
.data
buf:    .quad 0
`
	tr := traceOf(t, src)
	seq := Analyze(tr, Sequential())
	par := Analyze(tr, Parallel())
	if par.Cycles >= seq.Cycles {
		t.Errorf("parallel cycles %d not < sequential cycles %d", par.Cycles, seq.Cycles)
	}
	// Parallel: both chains are mov->store->load = 3 cycles.
	if par.Cycles != 3 {
		t.Errorf("parallel cycles = %d, want 3", par.Cycles)
	}
	// Sequential: second store must wait for first load (WAR) -> 5 deep.
	if seq.Cycles != 5 {
		t.Errorf("sequential cycles = %d, want 5", seq.Cycles)
	}
}

func TestStackPointerElision(t *testing.T) {
	// Pushes of independent values: the rsp chain serialises them unless
	// the model ignores stack-pointer dependences (and renames memory).
	tr := traceOf(t, `
main:   movq $1, %rax
        movq $2, %rbx
        pushq %rax
        pushq %rbx
        pushq %rax
        pushq %rbx
        hlt
`)
	withSP := Parallel()
	withSP.IgnoreStackPointer = false
	sp := Analyze(tr, withSP)
	nosp := Analyze(tr, Parallel())
	if nosp.Cycles >= sp.Cycles {
		t.Errorf("rsp-elided cycles %d not < rsp-honoured cycles %d", nosp.Cycles, sp.Cycles)
	}
	// With rsp elision all four pushes only depend on their data: 2 cycles.
	if nosp.Cycles != 2 {
		t.Errorf("rsp-elided cycles = %d, want 2", nosp.Cycles)
	}
}

func TestControlDependences(t *testing.T) {
	src := `
main:   movq $0, %rax
        movq $4, %rcx
loop:   addq $1, %rax
        decq %rcx
        jne loop
        hlt
`
	tr := traceOf(t, src)
	perfect := Analyze(tr, Parallel())
	imperfect := Parallel()
	imperfect.PerfectBranchPrediction = false
	ctl := Analyze(tr, imperfect)
	if ctl.Cycles <= perfect.Cycles {
		t.Errorf("control-constrained cycles %d not > perfect cycles %d", ctl.Cycles, perfect.Cycles)
	}
}

func TestWindowLimit(t *testing.T) {
	// 32 independent movs. With a 10-instruction window the schedule needs
	// ceil(32/10) ≈ 4 cycles; unbounded needs 1.
	var src string
	src = "main:\n"
	for i := 0; i < 32; i++ {
		src += "        movq $1, %rax\n" // independent under renaming
	}
	src += "        hlt\n"
	tr := traceOf(t, src)
	m := Model{Name: "w10", RenameRegisters: true, RenameMemory: true, PerfectBranchPrediction: true, WindowSize: 10}
	r := Analyze(tr, m)
	if r.Cycles < 4 {
		t.Errorf("windowed cycles = %d, want >= 4", r.Cycles)
	}
	un := Analyze(tr, Parallel())
	if un.Cycles != 1 {
		t.Errorf("unbounded cycles = %d, want 1", un.Cycles)
	}
}

func TestIssueWidthLimit(t *testing.T) {
	var src string
	src = "main:\n"
	for i := 0; i < 16; i++ {
		src += "        movq $1, %rax\n"
	}
	src += "        hlt\n"
	tr := traceOf(t, src)
	m := Model{Name: "iw4", RenameRegisters: true, RenameMemory: true, PerfectBranchPrediction: true, IssueWidth: 4}
	r := Analyze(tr, m)
	// 17 instructions at 4 per cycle = 5 cycles.
	if r.Cycles != 5 {
		t.Errorf("cycles = %d, want 5", r.Cycles)
	}
	if r.MaxParallelism != 4 {
		t.Errorf("max parallelism = %d, want 4", r.MaxParallelism)
	}
}

func TestWindowedMatchesUnboundedWhenHuge(t *testing.T) {
	// A window larger than the trace must reproduce the unbounded result.
	p, err := progs.BuildSumCall(progs.Vector(20))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := emu.RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	un := Analyze(tr, Sequential())
	m := Sequential()
	m.WindowSize = tr.Len() + 1
	win := Analyze(tr, m)
	if un.Cycles != win.Cycles {
		t.Errorf("unbounded %d cycles != windowed %d cycles", un.Cycles, win.Cycles)
	}
}

// TestSumParallelBeatsSequential reproduces the Fig. 7 shape on the paper's
// own running example: the parallel model's ILP exceeds the sequential
// model's, and grows with the dataset.
func TestSumParallelBeatsSequential(t *testing.T) {
	var prevParILP float64
	for _, n := range []int{20, 80, 320, 1280} {
		p, err := progs.BuildSumCall(progs.Vector(n))
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := emu.RunTraced(p)
		if err != nil {
			t.Fatal(err)
		}
		seq := Analyze(tr, Sequential())
		par := Analyze(tr, Parallel())
		if par.ILP <= seq.ILP {
			t.Errorf("n=%d: parallel ILP %.1f <= sequential ILP %.1f", n, par.ILP, seq.ILP)
		}
		if par.ILP <= prevParILP {
			t.Errorf("n=%d: parallel ILP %.1f did not grow (prev %.1f)", n, par.ILP, prevParILP)
		}
		prevParILP = par.ILP
	}
}

// TestSequentialILPIsLow: the sequential model on the call-version sum stays
// in the single digits regardless of dataset (the paper reports 3.2–5.6 for
// PBBS), because the stack serialises the recursion.
func TestSequentialILPIsLow(t *testing.T) {
	for _, n := range []int{40, 160, 640} {
		p, err := progs.BuildSumCall(progs.Vector(n))
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := emu.RunTraced(p)
		if err != nil {
			t.Fatal(err)
		}
		seq := Analyze(tr, Sequential())
		if seq.ILP > 10 {
			t.Errorf("n=%d: sequential ILP %.1f, want < 10", n, seq.ILP)
		}
	}
}

// TestDistantILP reproduces the Austin–Sohi observation the paper cites:
// under the parallel model a sizeable share of critical dependences are
// distant (> 64 dynamic instructions) for a recursive reduction.
func TestDistantILP(t *testing.T) {
	p, err := progs.BuildSumCall(progs.Vector(640))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := emu.RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	par := Analyze(tr, Parallel())
	var near, far int64
	for k, c := range par.DistanceHist {
		if k <= 6 {
			near += c
		} else {
			far += c
		}
	}
	if far == 0 {
		t.Error("no distant dependences found; expected distant ILP")
	}
	if par.MeanCriticalDistance() <= 1 {
		t.Errorf("mean critical distance = %.1f, want > 1", par.MeanCriticalDistance())
	}
	_ = near
}

func TestEmptyTrace(t *testing.T) {
	r := Analyze(&trace.Trace{}, Parallel())
	if r.Cycles != 0 || r.Instructions != 0 {
		t.Errorf("empty trace result = %+v", r)
	}
	r = Analyze(&trace.Trace{}, TjadenFlynn())
	if r.Cycles != 0 {
		t.Errorf("empty windowed trace result = %+v", r)
	}
}

// TestModelOrderingQuick: for random sum sizes, the four standard models are
// ordered: TjadenFlynn <= WallGood <= Sequential(=WallPerfect-ish) <= Parallel.
func TestModelOrderingQuick(t *testing.T) {
	f := func(seed uint8) bool {
		n := 5 + int(seed)%60
		p, err := progs.BuildSumCall(progs.Vector(n))
		if err != nil {
			return false
		}
		tr, _, err := emu.RunTraced(p)
		if err != nil {
			return false
		}
		tf := Analyze(tr, TjadenFlynn())
		wg := Analyze(tr, WallGood())
		seq := Analyze(tr, Sequential())
		par := Analyze(tr, Parallel())
		const eps = 1e-9
		return tf.ILP <= wg.ILP+eps && wg.ILP <= seq.ILP+eps && seq.ILP <= par.ILP+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestRSPDependenceIdentification: rsp reads/writes are the only thing
// distinguishing Parallel from Parallel-with-SP on a pure push/pop program.
func TestRSPDependenceIdentification(t *testing.T) {
	tr := traceOf(t, `
main:   pushq %rax
        popq %rbx
        hlt
`)
	// Sanity: the records do reference rsp.
	foundRSP := false
	for i := range tr.Records {
		for _, reg := range tr.Records[i].RegReads() {
			if reg == isa.RSP {
				foundRSP = true
			}
		}
	}
	if !foundRSP {
		t.Fatal("trace does not reference rsp")
	}
}

// TestWindowOneSerializes: a 1-instruction window forces a fully serial
// schedule regardless of dependences.
func TestWindowOneSerializes(t *testing.T) {
	var src string
	src = "main:\n"
	for i := 0; i < 12; i++ {
		src += "        movq $1, %rax\n" // independent under renaming
	}
	src += "        hlt\n"
	tr := traceOf(t, src)
	m := Model{Name: "w1", RenameRegisters: true, RenameMemory: true, PerfectBranchPrediction: true, WindowSize: 1}
	r := Analyze(tr, m)
	if r.Cycles != int64(tr.Len()) {
		t.Errorf("cycles = %d, want %d (one per instruction)", r.Cycles, tr.Len())
	}
	if r.MaxParallelism != 1 {
		t.Errorf("max parallelism = %d, want 1", r.MaxParallelism)
	}
}

// TestWindowAndIssueCombine: with both limits configured the schedule obeys
// the tighter of the two each cycle.
func TestWindowAndIssueCombine(t *testing.T) {
	var src string
	src = "main:\n"
	for i := 0; i < 24; i++ {
		src += "        movq $1, %rax\n"
	}
	src += "        hlt\n"
	tr := traceOf(t, src) // 25 instructions, all independent
	m := Model{Name: "w8iw2", RenameRegisters: true, RenameMemory: true, PerfectBranchPrediction: true, WindowSize: 8, IssueWidth: 2}
	r := Analyze(tr, m)
	// Issue width 2 dominates the 8-wide window: ceil(25/2) = 13 cycles.
	if r.Cycles != 13 {
		t.Errorf("cycles = %d, want 13", r.Cycles)
	}
	if r.MaxParallelism > 2 {
		t.Errorf("max parallelism = %d, exceeds the issue width", r.MaxParallelism)
	}
}

// TestWindowStallsOnChainHead: an in-order window cannot slide past an
// incomplete head, so a dependence chain at the front gates independent work
// behind it.
func TestWindowStallsOnChainHead(t *testing.T) {
	src := `
main:   movq $0, %rax
        addq $1, %rax
        addq $1, %rax
        addq $1, %rax
        movq $1, %rbx
        movq $2, %rcx
        movq $3, %rdx
        hlt
`
	tr := traceOf(t, src)
	narrow := Model{Name: "w2", RenameRegisters: true, RenameMemory: true, PerfectBranchPrediction: true, WindowSize: 2}
	wide := Model{Name: "w64", RenameRegisters: true, RenameMemory: true, PerfectBranchPrediction: true, WindowSize: 64}
	rn, rw := Analyze(tr, narrow), Analyze(tr, wide)
	if rn.Cycles <= rw.Cycles {
		t.Errorf("2-wide window (%d cycles) not slower than 64-wide (%d cycles)", rn.Cycles, rw.Cycles)
	}
	// The chain is 4 long; the wide window hides everything else behind it.
	if rw.Cycles != 4 {
		t.Errorf("wide-window cycles = %d, want 4 (the chain length)", rw.Cycles)
	}
}

// TestTjadenFlynnBelowWall: the related-work model hierarchy on a real
// workload: the 10-instruction Tjaden–Flynn window cannot beat Wall's good
// machine, which cannot beat Wall's perfect machine.
func TestTjadenFlynnBelowWall(t *testing.T) {
	p, err := progs.BuildSumCall(progs.Vector(40))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := emu.RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	tf := Analyze(tr, TjadenFlynn())
	good := Analyze(tr, WallGood())
	perfect := Analyze(tr, WallPerfect())
	if tf.ILP > good.ILP {
		t.Errorf("Tjaden–Flynn ILP %.2f exceeds Wall-good %.2f", tf.ILP, good.ILP)
	}
	if good.ILP > perfect.ILP {
		t.Errorf("Wall-good ILP %.2f exceeds Wall-perfect %.2f", good.ILP, perfect.ILP)
	}
	if good.MaxParallelism > 64 {
		t.Errorf("Wall-good issued %d in one cycle, exceeds its 64-wide issue", good.MaxParallelism)
	}
}

// TestIssueWidthMonotone: widening issue never slows the schedule down.
func TestIssueWidthMonotone(t *testing.T) {
	p, err := progs.BuildSumCall(progs.Vector(20))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := emu.RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(1 << 62)
	for _, iw := range []int{1, 2, 4, 8, 16} {
		m := Parallel()
		m.IssueWidth = iw
		r := Analyze(tr, m)
		if r.Cycles > prev {
			t.Errorf("issue width %d: %d cycles, slower than narrower issue (%d)", iw, r.Cycles, prev)
		}
		if int64(r.MaxParallelism) > int64(iw) {
			t.Errorf("issue width %d: max parallelism %d exceeds it", iw, r.MaxParallelism)
		}
		prev = r.Cycles
	}
}
