package fuzzgen

import (
	"fmt"
	"reflect"

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
// segments, and per-instruction stage timestamps — and the machine legs
// reproduce bit-identically across warm Reset and pool reuse.
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

// run is one machine leg's outcome: the result and the per-instruction rows
// a collector gathered beside it.
type run struct {
	*machine.Result
	rows []machine.InstTiming
}

// runRows runs m — freshly built, bound or Reset, and since then poisoned or
// not — with a row collector attached.
func runRows(m *machine.Machine) (run, error) {
	var c machine.Collector
	c.Attach(m)
	r, err := m.Run()
	if err != nil {
		return run{}, err
	}
	return run{r, c.Timings(r)}, nil
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
// first divergence. Compiling once is load-bearing: timing rows carry
// instruction pointers, so bit-identity is only meaningful against the same
// compilation.
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
	runLeg := func(dense bool) (run, *machine.Machine, error) {
		c := cfg
		c.Dense = dense
		m, err := machine.New(prog, c)
		if err != nil {
			return run{}, nil, err
		}
		r, err := runRows(m)
		return r, m, err
	}
	ref, refM, err := runLeg(false)
	if err != nil {
		return fail("machine", "idle-skip: %v", err)
	}

	// Emulator vs machine: architectural state (rax + full data segment).
	if emuRes.RAX != ref.RAX {
		return fail("mismatch", "emulator rax=%d, idle-skip machine rax=%d", emuRes.RAX, ref.RAX)
	}
	for off := uint64(0); off < uint64(len(prog.Data)); off += 8 {
		addr := isa.DataBase + off
		if a, b := emuRes.Mem.ReadU64(addr), refM.DMH().ReadU64(addr); a != b {
			return fail("mismatch", "data[%#x]: emulator=%d, idle-skip machine=%d", addr, a, b)
		}
	}

	// Substrate 4: the dense leg must be bit-identical to the idle-skip
	// reference, stage timestamps included.
	dense, _, err := runLeg(true)
	if err != nil {
		return fail("machine", "dense: %v", err)
	}
	if diff := diffResults(ref, dense); diff != "" {
		return fail("mismatch", "idle-skip vs dense: %s", diff)
	}

	if f := o.checkReuse(prog, cfg, ref); f != nil {
		f.Source, f.Cores = src, cores
		return f
	}
	return nil
}

// checkReuse runs the machine's reuse legs of prog at cfg against ref, the
// plain idle-skip run, and returns a Failure carrying only Stage and Detail.
func (o *Oracle) checkReuse(prog *isa.Program, cfg machine.Config, ref run) *Failure {
	fail := func(stage, format string, args ...any) *Failure {
		return &Failure{Stage: stage, Detail: fmt.Sprintf(format, args...)}
	}

	// Warm re-runs: the same Machine after Reset, twice, must reproduce the
	// cold run bit for bit. The cold run and the second warm run are the
	// poisoned legs when the tests ask for them.
	m, err := machine.New(prog, cfg)
	if err != nil {
		return fail("machine", "construct: %v", err)
	}
	o.poisonLeg(m)
	cold, err := runRows(m)
	if err != nil {
		return fail("machine", "cold run: %v", err)
	}
	if diff := diffResults(ref, cold); diff != "" {
		return fail("mismatch", "idle-skip vs fresh construction: %s", diff)
	}
	for i := 1; i <= 2; i++ {
		m.Reset()
		if i == 2 {
			o.poisonLeg(m)
		}
		warm, err := runRows(m)
		if err != nil {
			return fail("machine", "warm run %d after Reset: %v", i, err)
		}
		if diff := diffResults(cold, warm); diff != "" {
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
		pooled, err := runRows(pm)
		if err != nil {
			return fail("machine", "pooled run (dense=%v): %v", dense, err)
		}
		pool.Put("", pm)
		if diff := diffResults(ref, pooled); diff != "" {
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

// diffResults compares two machine results for bit-identity — the same
// fields the scheduler oracle test pins: headline metrics, final register
// files, section records, and every per-instruction stage-timestamp row.
// It returns "" when identical, else a description of the first difference.
func diffResults(a, b run) string {
	switch {
	case a.Cycles != b.Cycles:
		return fmt.Sprintf("cycles %d vs %d", a.Cycles, b.Cycles)
	case a.Instructions != b.Instructions:
		return fmt.Sprintf("instructions %d vs %d", a.Instructions, b.Instructions)
	case a.RAX != b.RAX:
		return fmt.Sprintf("rax %d vs %d", a.RAX, b.RAX)
	case a.FetchDone != b.FetchDone:
		return fmt.Sprintf("fetchDone %d vs %d", a.FetchDone, b.FetchDone)
	case a.RetireDone != b.RetireDone:
		return fmt.Sprintf("retireDone %d vs %d", a.RetireDone, b.RetireDone)
	case a.RegRequests != b.RegRequests:
		return fmt.Sprintf("regRequests %d vs %d", a.RegRequests, b.RegRequests)
	case a.MemRequests != b.MemRequests:
		return fmt.Sprintf("memRequests %d vs %d", a.MemRequests, b.MemRequests)
	case a.CreateMessages != b.CreateMessages:
		return fmt.Sprintf("createMessages %d vs %d", a.CreateMessages, b.CreateMessages)
	case a.RequestHops != b.RequestHops:
		return fmt.Sprintf("requestHops %d vs %d", a.RequestHops, b.RequestHops)
	case a.ResponseMessages != b.ResponseMessages:
		return fmt.Sprintf("responseMessages %d vs %d", a.ResponseMessages, b.ResponseMessages)
	case a.DMHAnswers != b.DMHAnswers:
		return fmt.Sprintf("dmhAnswers %d vs %d", a.DMHAnswers, b.DMHAnswers)
	}
	if a.Regs != b.Regs {
		return "final register files differ"
	}
	if !reflect.DeepEqual(a.Sections, b.Sections) {
		return "section records differ"
	}
	if len(a.rows) != len(b.rows) {
		return fmt.Sprintf("%d vs %d timing rows", len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		if a.rows[i] != b.rows[i] {
			return fmt.Sprintf("timing row %d: %+v vs %+v", i, a.rows[i], b.rows[i])
		}
	}
	return ""
}
