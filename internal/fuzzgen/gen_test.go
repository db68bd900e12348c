package fuzzgen

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/minic"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		a, b := Generate(seed), Generate(seed)
		if a.Source != b.Source || a.Cores != b.Cores {
			t.Errorf("seed %d: Generate is not deterministic", seed)
		}
	}
}

// TestGeneratedPrograms pins the generator's contract over a window of
// seeds: every program compiles in both modes, is a Format fixpoint (so the
// minimizer can round-trip it), terminates quickly on the emulator, and
// asks for a legal core count.
func TestGeneratedPrograms(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		p := Generate(uint64(seed))
		if p.Cores < 1 || p.Cores > 16 {
			t.Fatalf("seed %d: cores = %d", seed, p.Cores)
		}
		ast, err := minic.Parse(p.Source)
		if err != nil {
			t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, err, p.Source)
		}
		if got := minic.Format(ast); got != p.Source {
			t.Fatalf("seed %d: source is not a Format fixpoint", seed)
		}
		if _, err := minic.Compile(p.Source, minic.ModeCall); err != nil {
			t.Fatalf("seed %d: call mode: %v\n%s", seed, err, p.Source)
		}
		prog, err := minic.Compile(p.Source, minic.ModeFork)
		if err != nil {
			t.Fatalf("seed %d: fork mode: %v\n%s", seed, err, p.Source)
		}
		cpu := emu.New(prog)
		cpu.MaxSteps = 1 << 20 // far above any budget-respecting program
		if _, err := cpu.Run(); err != nil {
			t.Fatalf("seed %d: emulator: %v\n%s", seed, err, p.Source)
		}
	}
}

// TestGeneratorVariety guards against the generator silently collapsing:
// across a seed window it must emit loops, branches, calls (fork sections),
// array stores and division — the constructs the oracle exists to cross.
func TestGeneratorVariety(t *testing.T) {
	var all strings.Builder
	for seed := 0; seed < 100; seed++ {
		all.WriteString(Generate(uint64(seed)).Source)
	}
	src := all.String()
	for _, construct := range []string{"for (", "if (", "f1(", " / ", " % ", "] = ", "?", "&&"} {
		if !strings.Contains(src, construct) {
			t.Errorf("no %q anywhere in 100 seeds", construct)
		}
	}
}

// TestOracleAcceptsGenerated runs seeds 0..48 through the full oracle,
// poisoned legs included.
func TestOracleAcceptsGenerated(t *testing.T) {
	o := testOracle()
	seeds := 49
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		p := Generate(uint64(seed))
		if f := o.CheckProgram(p); f != nil {
			t.Errorf("seed %d: %v\n%s", seed, f, p.Source)
		}
	}
}

// TestOracleCatchesMismatch feeds the oracle a hand-broken pair by proxy:
// a program whose behaviour is fine, checked at a bogus stage — the compile
// stage must classify, not panic, and carry the position of the error.
func TestOracleCatchesBadProgram(t *testing.T) {
	o := &Oracle{}
	f := o.Check("long main(void) { return x; }", 2)
	if f == nil || f.Stage != "compile" {
		t.Fatalf("oracle on malformed program = %v, want compile-stage failure", f)
	}
	if !strings.Contains(f.Detail, "line 1") {
		t.Errorf("compile failure lacks position: %q", f.Detail)
	}
	if !strings.Contains(f.Error(), "compile") {
		t.Errorf("Failure.Error() = %q", f.Error())
	}
}

// TestShrinkKeepsStage: Shrink minimizes under the oracle at the failure's
// core count and keeps its stage and seed — here a compile failure appended
// to a generated program, which shrinks to a main that fails to compile.
func TestShrinkKeepsStage(t *testing.T) {
	src := Generate(3).Source + "\nlong broken(void) {\n    return undeclaredName;\n}\n"
	o := testOracle()
	f := o.Check(src, 2)
	if f == nil || f.Stage != "compile" {
		t.Fatalf("oracle on a program with an undeclared name = %v, want a compile failure", f)
	}
	f.Seed = 3
	min := o.Shrink(f)
	if min.Stage != "compile" || min.Seed != 3 || min.Cores != 2 {
		t.Errorf("shrunk failure = %v, want stage compile, seed 3, cores 2", min)
	}
	if len(min.Source) >= len(src) || !strings.Contains(min.Detail, "undeclared identifier") {
		t.Errorf("shrunk %d -> %d bytes:\n%s", len(src), len(min.Source), min.Source)
	}
}
