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

// record runs p on the emulator, appending every record its hook sees.
func record(t *testing.T, p *isa.Program) *trace.Trace {
	t.Helper()
	c := emu.New(p)
	tr := &trace.Trace{}
	c.TraceHook = func(r *trace.Record) { tr.Append(*r) }
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func traceOf(t *testing.T, src string) *trace.Trace {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return record(t, p)
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
		tr := record(t, p)
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
		tr := record(t, p)
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
	tr := record(t, p)
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
	_ = near
}

func TestEmptyTrace(t *testing.T) {
	r := Analyze(&trace.Trace{}, Parallel())
	if r.Cycles != 0 || r.Instructions != 0 {
		t.Errorf("empty trace result = %+v", r)
	}
}

// TestModelOrderingQuick: for random sum sizes, the two Fig. 7 models are
// ordered: Sequential <= Parallel.
func TestModelOrderingQuick(t *testing.T) {
	f := func(seed uint8) bool {
		n := 5 + int(seed)%60
		p, err := progs.BuildSumCall(progs.Vector(n))
		if err != nil {
			return false
		}
		tr := record(t, p)
		seq := Analyze(tr, Sequential())
		par := Analyze(tr, Parallel())
		const eps = 1e-9
		return seq.ILP <= par.ILP+eps
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
