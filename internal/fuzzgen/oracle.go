package fuzzgen

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/gofront"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/progs"
)

// Failure describes a fuzz case that broke the equivalence invariant.
type Failure struct {
	// Seed regenerates the original program; zero when the source did not
	// come from Generate. A Shrink result keeps the seed it was shrunk from.
	Seed uint64
	// Source is the failing mini-C program.
	Source string
	// Cores is the machine width the oracle ran at.
	Cores int
	// Stage classifies the failure: "compile", "emulator" (the sequential
	// oracle itself faulted), "interp" (the AST interpreter faulted),
	// "machine" (a machine leg faulted), or "mismatch" (two substrates
	// disagreed).
	Stage string
	// Detail is the human-readable specifics: which legs, which metric.
	Detail string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("fuzz seed %d (cores=%d) %s: %s", f.Seed, f.Cores, f.Stage, f.Detail)
}

// Oracle checks the repo's core invariant on one program: AST interpreter ≡
// emulator ≡ idle-skip machine ≡ dense machine — checksums, final data
// segments (backend.SameState), and every field of the machine's result and
// every per-instruction row (machine.Traced.Diff, with each row's position at
// retirement checked by machine.RunRows) — and the machine legs reproduce
// bit-identically across warm Reset and pool reuse.
type Oracle struct {
	// poison, set by this package's tests, switches the machine it is given to
	// poisoning retired instructions instead of recycling them (the machine's
	// unexported test hook). The fresh-construction leg, the second warm-Reset
	// leg and the dense pooled leg then run poisoned and must still equal the
	// plain reference row for row: the schedulers share the recycling code,
	// so a read of a retired instruction that shifted a timestamp in both
	// alike would otherwise pass every comparison here.
	poison func(*machine.Machine)
}

// fuzzMaxSteps bounds the emulator leg: large enough for any generator
// budget (programs use a few thousand steps), small enough to fail fast on a
// runaway minimizer candidate.
const fuzzMaxSteps = 1 << 22

// shrinkBudget bounds the oracle runs one Shrink spends. Go's fuzzing engine
// may re-run a failing input while it minimises it, and every failing run
// shrinks again.
const shrinkBudget = 256

// CheckProgram runs a generated case through the full oracle.
func (o *Oracle) CheckProgram(p *Program) *Failure {
	f := o.Check(p.Source, p.Cores)
	if f != nil {
		f.Seed = p.Seed
	}
	return f
}

// Check compiles src once in fork mode and runs the compiled program on
// every substrate, returning nil if all agree or a Failure describing the
// first divergence.
func (o *Oracle) Check(src string, cores int) *Failure {
	fail := func(stage, format string, args ...any) *Failure {
		return &Failure{Source: src, Cores: cores, Stage: stage, Detail: fmt.Sprintf(format, args...)}
	}

	ast, err := minic.Parse(src)
	if err != nil {
		return fail("compile", "%v", err)
	}
	prog, err := minic.CompileAST(ast, minic.ModeFork)
	if err != nil {
		return fail("compile", "%v", err)
	}

	// Substrate 1: the sequential emulator, bounded so that a minimizer
	// candidate that loops forever dies here instead of hanging a slower
	// machine leg.
	em := backend.NewEmulator()
	em.MaxSteps = fuzzMaxSteps
	emuRes, err := em.Run(prog, nil, false)
	if err != nil {
		return fail("emulator", "%v", err)
	}

	// Substrate 2: gofront's interpreter over the checked AST the program
	// was compiled from. The emulator and the machine evaluate instructions
	// through the same isa.Exec, so a bug there cannot show up as a
	// disagreement between them; the interpreter shares no code with isa.
	// It runs after the emulator because only the emulator's step bound is
	// fuzz-sized.
	want, err := gofront.Interp(ast, nil)
	if err != nil {
		return fail("interp", "%v", err)
	}
	if want != emuRes.RAX {
		return fail("mismatch", "interpreter rax=%d, emulator rax=%d", want, emuRes.RAX)
	}

	// Substrate 3: the idle-skip machine is the reference all other machine
	// legs are compared against.
	cfg := machine.DefaultConfig(cores)
	runLeg := func(dense bool) (machine.Traced, *machine.Machine, error) {
		c := cfg
		c.Dense = dense
		m, err := machine.New(prog, c)
		if err != nil {
			return machine.Traced{}, nil, err
		}
		r, err := machine.RunRows(m)
		return r, m, err
	}
	ref, refM, err := runLeg(false)
	if err != nil {
		return fail("machine", "idle-skip: %v", err)
	}

	// Emulator vs machine: architectural state (rax + full data segment).
	if err := backend.SameState(prog, emuRes, &backend.Result{RAX: ref.RAX, Mem: refM.DMH()}, "idle-skip machine"); err != nil {
		return fail("mismatch", "%v", err)
	}

	// Substrate 4: the dense leg must be bit-identical to the idle-skip
	// reference, stage timestamps included.
	dense, _, err := runLeg(true)
	if err != nil {
		return fail("machine", "dense: %v", err)
	}
	if diff := ref.Diff(dense); diff != "" {
		return fail("mismatch", "idle-skip vs dense: %s", diff)
	}

	return o.checkReuse(prog, cfg, ref, fail)
}

// checkReuse runs the machine's reuse legs of prog at cfg against ref, the
// plain idle-skip run, and reports the first that fails through fail.
func (o *Oracle) checkReuse(prog *isa.Program, cfg machine.Config, ref machine.Traced,
	fail func(stage, format string, args ...any) *Failure) *Failure {
	// Warm re-runs: the same Machine after Reset, twice, must reproduce the
	// cold run bit for bit. The cold run and the second warm run are the
	// poisoned legs when the tests ask for them.
	m, err := machine.New(prog, cfg)
	if err != nil {
		return fail("machine", "construct: %v", err)
	}
	o.poisonLeg(m)
	cold, err := machine.RunRows(m)
	if err != nil {
		return fail("machine", "cold run: %v", err)
	}
	if diff := ref.Diff(cold); diff != "" {
		return fail("mismatch", "idle-skip vs fresh construction: %s", diff)
	}
	for i := 1; i <= 2; i++ {
		m.Reset()
		if i == 2 {
			o.poisonLeg(m)
		}
		warm, err := machine.RunRows(m)
		if err != nil {
			return fail("machine", "warm run %d after Reset: %v", i, err)
		}
		if diff := cold.Diff(warm); diff != "" {
			return fail("mismatch", "cold vs warm-Reset re-run %d: %s", i, diff)
		}
	}

	// Pooled re-runs: the parked machine last ran another program on another
	// core count, and every Get rebinds it — program, shape and scheduler —
	// so idle-skip, dense (poisoned) and idle-skip again through that one
	// machine must each match the reference.
	pool, err := parkedPool(cfg.Cores)
	if err != nil {
		return fail("machine", "park: %v", err)
	}
	for _, dense := range []bool{false, true, false} {
		c := cfg
		c.Dense = dense
		pm, err := pool.Get("", prog, c)
		if err != nil {
			return fail("machine", "pool get (dense=%v): %v", dense, err)
		}
		if dense {
			o.poisonLeg(pm)
		}
		pooled, err := machine.RunRows(pm)
		if err != nil {
			return fail("machine", "pooled run (dense=%v): %v", dense, err)
		}
		pool.Put("", pm)
		if diff := ref.Diff(pooled); diff != "" {
			return fail("mismatch", "idle-skip vs pooled run (dense=%v) on a rebound machine: %s", dense, diff)
		}
	}
	if s := pool.Stats(); s.Hits != 3 || s.Misses != 0 {
		return fail("machine", "pool stats hits=%d misses=%d, want 3/0", s.Hits, s.Misses)
	}

	return nil
}

// poisonLeg hands m to the tests' poison hook, if there is one.
func (o *Oracle) poisonLeg(m *machine.Machine) {
	if o.poison != nil {
		o.poison(m)
	}
}

// Shrink minimizes a failing program under the oracle at the same core
// count, keeping the failure stage: a mismatch must still mismatch, a
// machine fault must still fault. The result carries the minimized source,
// its re-checked detail and f's seed. After shrinkBudget oracle runs every
// further candidate is refused, so the smallest program found by then is
// the result.
func (o *Oracle) Shrink(f *Failure) *Failure {
	runs := 0
	src := Minimize(f.Source, func(s string) bool {
		if runs == shrinkBudget {
			return false
		}
		runs++
		g := o.Check(s, f.Cores)
		return g != nil && g.Stage == f.Stage
	})
	min := o.Check(src, f.Cores)
	if min == nil {
		return f // f.Source in canonical form, which passes: keep the original
	}
	min.Seed = f.Seed
	return min
}

// parkedPool returns a pool whose one parked machine has just run a small
// fixed fork program (the paper's sum, six elements) on a core count other
// than cores — so the next Get, of whatever program, has to rebind it across
// both program and shape.
func parkedPool(cores int) (*machine.Pool, error) {
	prog, err := progs.BuildSumFork(progs.Vector(6))
	if err != nil {
		return nil, err
	}
	m, err := machine.New(prog, machine.DefaultConfig(cores+3))
	if err != nil {
		return nil, err
	}
	pool := &machine.Pool{}
	_, err = m.Run()
	pool.Put("", m)
	return pool, err
}
